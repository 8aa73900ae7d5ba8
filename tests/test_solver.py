"""Tests for the time-domain solver.

The checks are structural rather than numeric where possible: exact
fixed points, conservation to rounding, bitwise equivariance under grid
rotation, reflection symmetry, and the linear dispersion relation
measured from the phase drift of a small sinusoid.  Accuracy against
the exact traveling wave is covered by the convergence tests.
"""

import re

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf, dpttrs

import sgnwaves as sw
from sgnwaves import solver
from sgnwaves.errors import EllipticSolveError, InvalidRootsError, PositivityError, StepBudgetError
from sgnwaves.solver import (
    LIMITERS,
    _anchor_cell,
    _block_length,
    _nonhydro_pressure,
    _pressure_operator,
    _step_arrays,
    _step_cells,
)

BASE = sw.RootTriple(1.0, 1.5, 2.0)
G = 10.0


def base_config(**kw):
    args = dict(roots=BASE, g=G, sign_m=-1, n_waves=1,
                amplitude=0.0, cells_per_wavelength=64)
    args.update(kw)
    return sw.WaveTrainConfig(**args)


# --- validation ---------------------------------------------------------------

def test_field_validation():
    with pytest.raises(ValueError):
        sw.SGNField(dx=0.1, g=G, h=np.ones(8), q=np.zeros(7))
    with pytest.raises(ValueError):
        sw.SGNField(dx=-0.1, g=G, h=np.ones(8), q=np.zeros(8))
    for dx, g in ((np.nan, G), (np.inf, G), (0.1, np.nan), (0.1, np.inf), (0.1, 0.0)):
        # NaN fails every comparison, so it must not slip past a <= 0 test
        with pytest.raises(ValueError, match=f"finite and positive, got dx={dx}, g={g}"):
            sw.SGNField(dx=dx, g=g, h=np.ones(8), q=np.zeros(8))
    with pytest.raises(PositivityError):
        sw.SGNField(dx=0.1, g=G, h=np.array([1.0, -0.5, 1.0]), q=np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        sw.SGNField(dx=0.1, g=G, h=np.ones(3), q=np.array([0.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        sw.SGNField(dx=0.1, g=G, h=np.array([1.0, np.inf, 1.0]), q=np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        sw.SGNField(dx=0.1, g=G, h=np.array([1.0, np.nan, 1.0]), q=np.zeros(3))


def test_field_needs_two_cells():
    # the cyclic pressure operator needs an off-diagonal: two cells at least
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 cells"):
            sw.SGNField(dx=0.1, g=G, h=np.ones(n), q=np.zeros(n))
    field = sw.SGNField(dx=0.1, g=G, h=np.array([1.0, 1.2]), q=np.array([0.1, -0.05]))
    out = sw.step(field, cfl=0.45)
    assert np.all(np.isfinite(out.h)) and np.all(np.isfinite(out.q)) and out.t > 0.0
    assert np.sum(out.h) == pytest.approx(np.sum(field.h), rel=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(n_waves=0)
    with pytest.raises(ValueError):
        base_config(amplitude=1.0)
    with pytest.raises(ValueError):
        base_config(amplitude=-0.1)
    with pytest.raises(ValueError):
        base_config(cells_per_wavelength=15)


@pytest.mark.parametrize("g", [np.nan, np.inf])
def test_nonfinite_gravity_is_rejected_before_any_output(tmp_path, g):
    out = tmp_path / "out"
    with pytest.raises(InvalidRootsError, match=f"got g={g}"):
        sw.run_experiment(base_config(g=g), t_end=0.1, out_dir=out)
    assert not out.exists()


def test_step_validation():
    field = sw.init_wavetrain(base_config())
    with pytest.raises(ValueError):
        sw.step(field, cfl=0.0)
    with pytest.raises(ValueError):
        sw.step(field, cfl=0.95)
    with pytest.raises(ValueError):
        sw.step(field, cfl=0.45, limiter="superbee")


# --- initialization --------------------------------------------------------------

def test_init_unperturbed_momentum_relation():
    field = sw.init_wavetrain(base_config(cells_per_wavelength=400))
    wave = sw.build_wave(BASE, G, -1)
    # q = h(m/h + D) = m + D h must hold cell by cell
    expected = wave.constants.m + wave.D * field.h
    assert np.max(np.abs(field.q - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert field.h.max() <= 2.0 + 1e-12
    assert field.h.min() >= 1.5 - 1e-12


def test_init_mass_matches_analytic_average():
    # midpoint sums of a smooth periodic function converge spectrally, so
    # the discrete mass agrees with n_waves * L * hbar to rounding
    cfg = base_config(n_waves=50, cells_per_wavelength=400)
    field = sw.init_wavetrain(cfg)
    mass = float(np.sum(field.h) * field.dx)
    expected = 50 * sw.wavelength(BASE) * sw.averaged_h(BASE)
    assert mass == pytest.approx(expected, rel=1e-9)


def test_init_perturbation_bound():
    a = 1e-3
    plain = sw.init_wavetrain(base_config(n_waves=5))
    pert = sw.init_wavetrain(base_config(n_waves=5, amplitude=a))
    assert np.max(np.abs(pert.h - plain.h)) <= a * 2.0 * (1.0 + 1e-12)


# --- exact invariants -------------------------------------------------------------

def test_still_water_is_fixed_point():
    h = np.full(200, 2.0)
    field = sw.SGNField(dx=0.05, g=G, h=h, q=np.zeros(200))
    for _ in range(25):
        field = sw.step(field, cfl=0.45)
    assert np.max(np.abs(field.h - 2.0)) <= 1e-14
    assert np.max(np.abs(field.q)) <= 1e-14


@pytest.mark.parametrize("n", [200, 13])
@pytest.mark.parametrize("limiter", LIMITERS)
def test_still_water_stays_bitwise_fixed(limiter, n):
    # n = 200 steps a 2-cell block, n = 13 (prime) the whole array
    h = np.full(n, 2.0)
    field = sw.SGNField(dx=0.05, g=G, h=h, q=np.zeros(n))
    for _ in range(25):
        field = sw.step(field, cfl=0.45, limiter=limiter)
    assert np.array_equal(field.h, h)
    assert np.array_equal(field.q, np.zeros(n))


@pytest.mark.parametrize("limiter", LIMITERS)
def test_mass_and_momentum_conserved_per_step(limiter):
    field = sw.init_wavetrain(base_config(n_waves=2, amplitude=1e-3,
                                          cells_per_wavelength=100))
    mass0, mom0, _ = sw.diagnostics(field)
    for _ in range(50):
        field = sw.step(field, cfl=0.45, limiter=limiter)
        mass, mom, _ = sw.diagnostics(field)
        assert mass == pytest.approx(mass0, rel=1e-12)
        assert abs(mom - mom0) <= 1e-10   # mom0 is ~0 in the zero-mean frame


def test_energy_drift_over_one_period():
    field = sw.init_wavetrain(base_config(cells_per_wavelength=400))
    wave = sw.build_wave(BASE, G, -1)
    T = wave.L / abs(wave.D)
    _, _, e0 = sw.diagnostics(field)
    t = 0.0
    while t < T - 1e-12:
        field = sw.step(field, cfl=0.45, dt_max=T - t)
        t = field.t
    _, _, e1 = sw.diagnostics(field)
    assert abs(e1 - e0) <= 1e-6 * abs(e0)


def test_translation_equivariance_generic_bitwise():
    rng = np.random.default_rng(7)
    h = 1.0 + 0.3 * rng.random(200)
    q = 0.2 * rng.standard_normal(200)
    shift = 37
    h1, q1, _ = _step_arrays(h, q, 0.05, G, 0.4, "mc")
    h2, q2, _ = _step_arrays(np.roll(h, shift), np.roll(q, shift), 0.05, G, 0.4, "mc")
    assert np.array_equal(np.roll(h1, shift), h2)
    assert np.array_equal(np.roll(q1, shift), q2)


def test_translation_equivariance_tiled_bitwise():
    # a tiled unperturbed train has bitwise-identical crest cells, so any
    # positional tie-breaking inside the cyclic solve would show up here
    field = sw.init_wavetrain(base_config(n_waves=3))
    shift = 64  # exactly one wavelength
    h1, q1, _ = _step_arrays(field.h, field.q, field.dx, G, 0.45, "mc")
    h2, q2, _ = _step_arrays(np.roll(field.h, shift), np.roll(field.q, shift),
                             field.dx, G, 0.45, "mc")
    assert np.array_equal(np.roll(h1, shift), h2)
    assert np.array_equal(np.roll(q1, shift), q2)


def _assert_rotation_equivariant(h, q, dx, shift, limiter="mc"):
    h1, q1, _ = _step_arrays(h, q, dx, G, 0.45, limiter)
    h2, q2, _ = _step_arrays(np.roll(h, shift), np.roll(q, shift), dx, G, 0.45, limiter)
    assert np.array_equal(np.roll(h1, shift), h2)
    assert np.array_equal(np.roll(q1, shift), q2)


def test_translation_equivariance_still_water_4000_cells():
    # every diagonal entry ties: the anchor search runs to full depth
    _assert_rotation_equivariant(np.full(4000, 2.0), np.zeros(4000), 0.05, 1237)


def test_translation_equivariance_nudged_tiled_train_4000_cells():
    # ten bitwise-identical wavelengths, one cell nudged so the anchor is unique
    one = sw.init_wavetrain(base_config(cells_per_wavelength=400))
    h, q = np.tile(one.h, 10), np.tile(one.q, 10)
    h[2718] *= 1.0 + 1e-9
    _assert_rotation_equivariant(h, q, one.dx, 1237)


def _tiled_train():
    one = sw.init_wavetrain(base_config(cells_per_wavelength=400))
    return np.tile(one.h, 10), np.tile(one.q, 10), one.dx


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("shift", [1, 400, 1200, 1237])
def test_translation_equivariance_exactly_tiled_train_4000_cells(shift, limiter):
    # ten bitwise-identical wavelengths: no unique anchor in the whole array,
    # so the step works on one wavelength and tiles it
    h, q, dx = _tiled_train()
    _assert_rotation_equivariant(h, q, dx, shift, limiter)


@pytest.mark.parametrize("limiter", LIMITERS)
def test_tiled_train_block_step_matches_full_length_step(limiter):
    h, q, dx = _tiled_train()
    hb, qb, dt = _step_arrays(h, q, dx, G, 0.45, limiter)
    hf, qf, dt_full = _step_cells(h, q, dx, G, 0.45, limiter, None)
    assert dt == dt_full
    assert np.max(np.abs(hb - hf)) <= 1e-14 * np.max(np.abs(hf))
    assert np.max(np.abs(qb - qf)) <= 1e-14 * np.max(np.abs(qf))


def _period_cases():
    rng = np.random.default_rng(5)
    block_h, block_q = np.array([1.0, 1.3, 1.1]), np.array([0.1, -0.2, 0.1])
    yield pytest.param(np.tile(block_h, 4), np.tile(block_q, 4), 3, id="p = 3 of n = 12")
    yield pytest.param(np.full(12, 1.5), np.zeros(12), 2, id="constant, n = 12")
    yield pytest.param(np.full(9, 1.5), np.zeros(9), 3, id="constant, n = 9")
    yield pytest.param(np.full(13, 1.5), np.zeros(13), 13, id="constant, odd prime n = 13")
    yield pytest.param(1.0 + rng.random(12), np.zeros(12), 12, id="unique maximum")
    q = np.tile(block_q, 4)
    q[7] += 1e-3
    yield pytest.param(np.tile(block_h, 4), q, 12, id="h periodic, q not")
    h, q, _ = _tiled_train()
    yield pytest.param(h.copy(), q, 400, id="tiled train")
    h[2718] *= 1.0 + 1e-9
    yield pytest.param(h, q, 4000, id="nudged tiled train")
    h, q, _ = _tiled_train()
    q[-1] *= 1.0 + 1e-9
    yield pytest.param(h, q, 4000, id="tiled train, q nudged")


@pytest.mark.parametrize("h, q, m", _period_cases())
def test_block_length(h, q, m):
    assert _block_length(h, q) == m


def test_reflection_symmetry():
    field = sw.init_wavetrain(base_config(amplitude=1e-2))
    h1, q1, _ = _step_arrays(field.h, field.q, field.dx, G, 0.45, "mc")
    hr = field.h[::-1].copy()
    qr = -field.q[::-1].copy()
    h2, q2, _ = _step_arrays(hr, qr, field.dx, G, 0.45, "mc")
    assert np.max(np.abs(h2 - h1[::-1])) <= 1e-12
    assert np.max(np.abs(q2 + q1[::-1])) <= 1e-12


def test_positivity_guard_raises():
    h = np.full(64, 1e-3)
    h[32] = 2.0
    q = np.zeros(64)
    q[:32] = -5.0
    q[33:] = 5.0
    message = r"face depth lost positivity at cell 32 \(h = -152\.86"
    with pytest.raises(PositivityError, match=message):
        _step_arrays(h, q, 0.01, G, 0.9, "mc")


def test_positivity_error_names_the_first_cell(monkeypatch):
    # the closing hydrostatic half step (the second call) leaves two cells dry
    hydro, calls = solver._hydro_step, []

    def drying_hydro(*args):
        U = hydro(*args)
        calls.append(None)
        if len(calls) == 2:
            U = U.copy()
            U[0, [9, 40]] = -0.25
        return U

    monkeypatch.setattr(solver, "_hydro_step", drying_hydro)
    h = 1.0 + 0.01 * np.random.default_rng(3).random(64)    # aperiodic: all 64 cells step
    with pytest.raises(PositivityError, match=r"at cell 9 \(h = -0\.25\)"):
        _step_arrays(h, np.zeros(64), 0.05, G, 0.45, "mc")


def test_nonfinite_depth_is_an_elliptic_solve_error():
    h = np.full(64, 1.0)
    h[17] = np.nan
    with pytest.raises(EllipticSolveError, match=r"cell 17"):
        _step_arrays(h, np.zeros(64), 0.05, G, 0.45, "mc")


@pytest.mark.parametrize("field, value", [("h", np.inf), ("q", np.nan), ("q", -np.inf)])
def test_nonfinite_state_names_its_first_cell(field, value):
    # NaN makes dt NaN and inf makes it 0; either way no substep may run
    state = {"h": np.ones(64), "q": np.zeros(64)}
    state[field][40] = value
    h, q = (repr(float(state[k][40])) for k in "hq")
    with pytest.raises(EllipticSolveError, match=rf"non-finite state at cell 40: h = {h}, q = {q}$"):
        _step_arrays(state["h"], state["q"], 0.05, G, 0.45, "mc")


def test_nonfinite_diagonal_names_its_first_cell():
    h = 1.0 + 0.1 * np.random.default_rng(4).random(64)
    h[17] = 0.0    # 3/h^3 is infinite at cell 17 only
    with np.errstate(divide="ignore"), pytest.raises(
        EllipticSolveError, match=r"non-finite diagonal entry at cell 17 \(h = 0\.0\)"
    ):
        _pressure_operator(h, 0.05, G)


def test_nonfinite_pressure_names_its_first_cell(monkeypatch):
    # the solve runs in the anchor-rotated frame; the error names the cell
    # in the caller's frame
    rng = np.random.default_rng(6)
    h, q = 1.0 + 0.1 * rng.random(64), 0.1 * rng.standard_normal(64)
    op = _pressure_operator(h, 0.05, G)
    shift = op[0]
    assert shift != 0

    def broken_solve(d, e, b):
        y, info = dpttrs(d, e, b)
        y[5] = np.nan
        return y, info

    monkeypatch.setattr(solver, "dpttrs", broken_solve)
    with pytest.raises(EllipticSolveError, match=rf"non-finite value at cell {(5 + shift) % 64}$"):
        _nonhydro_pressure(op, h, q, 0.05)


# --- dispersive pressure solve ----------------------------------------------------

@pytest.mark.parametrize("n", [64, 3])
def test_pressure_solve_matches_dense_cyclic_matrix(n):
    rng = np.random.default_rng(n)
    h = 0.5 + rng.random(n)
    q = rng.standard_normal(n)
    dx = 0.1
    w = 2.0 / (h + np.roll(h, -1)) / dx ** 2    # 1/h at face i+1/2
    A = np.diag(3.0 / h ** 3 + w + np.roll(w, 1))
    for i in range(n):
        A[i, (i + 1) % n] -= w[i]
        A[(i + 1) % n, i] -= w[i]
    u = q / h
    ux = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)
    hxx = (np.roll(h, -1) - 2.0 * h + np.roll(h, 1)) / dx ** 2
    expected = np.linalg.solve(A, 2.0 * ux ** 2 + G * hxx)
    p = _nonhydro_pressure(_pressure_operator(h, dx, G), h, q, dx)
    assert np.max(np.abs(p - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_one_step_anchors_and_factors_once(monkeypatch):
    calls = {"_anchor_cell": 0, "dpttrf": 0}
    for name in calls:
        def counted(*args, _fn=getattr(solver, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(solver, name, counted)
    sw.step(sw.init_wavetrain(base_config(amplitude=1e-3)), cfl=0.45)
    assert calls == {"_anchor_cell": 1, "dpttrf": 1}


# --- the np.roll formulation the solver replaced ---------------------------------
#
# A compact copy of the solver before it moved to the stacked (h, q) state and
# slice concatenations.  The arithmetic is unchanged, so the results must match
# bit for bit.

def _ref_anchor_cell(key):
    n = key.size
    cand = np.flatnonzero(key == key.max())
    depth = 1
    while cand.size > 1 and depth < n:
        vals = key[(cand + depth) % n]
        cand = cand[vals == vals.max()]
        depth += 1
    return int(cand[0])


def _ref_slopes(v, limiter):
    dl = v - np.roll(v, 1)
    dr = np.roll(v, -1) - v
    if limiter == "central":
        return 0.5 * (dl + dr)
    if limiter == "minmod":
        return solver._minmod(dl, dr)
    c = 0.5 * (dl + dr)
    lim = 2.0 * np.minimum(np.abs(dl), np.abs(dr))
    return np.where(dl * dr <= 0.0, 0.0, np.sign(c) * np.minimum(np.abs(c), lim))


def _ref_flux(h, q, g):
    return q, q * q / h + 0.5 * g * h * h


def _ref_hydro_step(h, q, dx, dt, g, limiter):
    sh, sq = _ref_slopes(h, limiter), _ref_slopes(q, limiter)
    hR, qR, hL, qL = h + 0.5 * sh, q + 0.5 * sq, h - 0.5 * sh, q - 0.5 * sq
    fRh, fRq = _ref_flux(hR, qR, g)
    fLh, fLq = _ref_flux(hL, qL, g)
    lam = 0.5 * dt / dx
    dh, dq = lam * (fRh - fLh), lam * (fRq - fLq)
    hR -= dh; qR -= dq
    hL -= dh; qL -= dq
    hl, ql, hr, qr = hR, qR, np.roll(hL, -1), np.roll(qL, -1)
    ul, ur = ql / hl, qr / hr
    cl, cr = np.sqrt(g * hl), np.sqrt(g * hr)
    sl = np.minimum(np.minimum(ul - cl, ur - cr), 0.0)
    sr = np.maximum(np.maximum(ul + cl, ur + cr), 0.0)
    flh, flq = _ref_flux(hl, ql, g)
    frh, frq = _ref_flux(hr, qr, g)
    den = sr - sl
    Fh = (sr * flh - sl * frh + sl * sr * (hr - hl)) / den
    Fq = (sr * flq - sl * frq + sl * sr * (qr - ql)) / den
    return h - dt / dx * (Fh - np.roll(Fh, 1)), q - dt / dx * (Fq - np.roll(Fq, 1))


def _ref_dispersive_step(h, q, dx, dt, g):
    w_plus = 2.0 / (h + np.roll(h, -1)) * (1.0 / (dx * dx))
    diag = 3.0 / h ** 3 + w_plus + np.roll(w_plus, 1)
    shift = _ref_anchor_cell(diag)
    d = np.roll(diag, -shift)
    off = np.roll(-w_plus, -shift)
    d0, corner = d[0], off[-1]
    d[0] += d0
    d[-1] += corner * corner / d0
    d, e, _ = dpttrf(d, off[:-1])
    w = np.zeros_like(d)
    w[[0, -1]] = -d0, corner
    z, _ = dpttrs(d, e, w)
    v_last = -corner / d0
    zs = z / (1.0 + z[0] + v_last * z[-1])
    g_hxx = g * ((np.roll(h, -1) - 2.0 * h + np.roll(h, 1)) / (dx * dx))

    def accel(qq):
        u = qq / h
        ux = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)
        y, _ = dpttrs(d, e, np.roll(2.0 * ux * ux + g_hxx, -shift))
        p = np.roll(y - (y[0] + v_last * y[-1]) * zs, shift)
        return -(np.roll(p, -1) - np.roll(p, 1)) / (2.0 * dx)

    k1 = accel(q)
    k2 = accel(q + dt * k1)
    return q + 0.5 * dt * (k1 + k2)


def _ref_step_arrays(h, q, dx, g, cfl, limiter):
    dt = cfl * dx / float(np.max(np.abs(q / h) + np.sqrt(g * h)))
    h, q = _ref_hydro_step(h, q, dx, 0.5 * dt, g, limiter)
    q = _ref_dispersive_step(h, q, dx, dt, g)
    h, q = _ref_hydro_step(h, q, dx, 0.5 * dt, g, limiter)
    return h, q, dt


def _random_state():
    rng = np.random.default_rng(11)
    return 1.0 + 0.3 * rng.random(200), 0.2 * rng.standard_normal(200), 0.05


def _desk_state():
    field = sw.init_wavetrain(base_config(n_waves=5, amplitude=1e-3, cells_per_wavelength=400))
    return field.h, field.q, field.dx


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("state", [_random_state, _desk_state], ids=["random", "desk"])
def test_step_matches_roll_reference_bitwise(state, limiter):
    h, q, dx = state()
    ref_h, ref_q = h, q
    for _ in range(20):
        h, q, dt = _step_arrays(h, q, dx, G, 0.45, limiter)
        ref_h, ref_q, ref_dt = _ref_step_arrays(ref_h, ref_q, dx, G, 0.45, limiter)
        assert dt == ref_dt
        assert np.array_equal(h, ref_h)
        assert np.array_equal(q, ref_q)


def _tie_heavy_keys(rng, n):
    """Keys with exact ties at the maximum, resolved at every depth up to n."""
    yield np.full(n, 1.5)
    for period in range(1, 6):
        yield np.tile(rng.integers(0, 3, period), n // period + 1)[:n].astype(float)
    dent = np.full(n, 1.5)
    dent[rng.integers(n)] = 0.5
    yield dent
    alternating = rng.integers(0, 2, n).astype(float)
    alternating[::2] = 2.0
    yield alternating
    yield rng.integers(0, 2, n).astype(float)


def test_anchor_matches_reference_loop_on_ties():
    rng = np.random.default_rng(2024)
    for n in range(1, 41):
        for _ in range(5):
            for key in _tie_heavy_keys(rng, n):
                assert _anchor_cell(key) == _ref_anchor_cell(key), key


@pytest.mark.parametrize("period", [1, 400])
def test_anchor_matches_reference_loop_on_4000_cells(period):
    rng = np.random.default_rng(period)
    key = np.tile(1.0 + rng.integers(0, 4, period), 4000 // period)
    assert _anchor_cell(key) == _ref_anchor_cell(key) < period    # lowest tied copy
    rotated = np.roll(key, 1234)
    assert _anchor_cell(rotated) == _ref_anchor_cell(rotated)


# --- physics ---------------------------------------------------------------------

@pytest.mark.parametrize("kappa_H", [0.1, 0.25, 0.5])
def test_linear_dispersion_relation(kappa_H):
    # phase speed of a tiny sinusoid must follow
    # c^2 = g H / (1 + (kappa H)^2 / 3); measured from the FFT phase of
    # the fundamental after a quarter period
    g, H = 9.81, 1.0
    kappa = kappa_H / H
    lam = 2.0 * np.pi / kappa
    n = 256
    dx = lam / n
    x = (np.arange(n) + 0.5) * dx
    a = 1e-6 * H
    c_exact = np.sqrt(g * H / (1.0 + (kappa * H) ** 2 / 3.0))
    h = H + a * np.cos(kappa * x)
    q = h * (c_exact * (h - H) / H)
    T = lam / (4.0 * c_exact)
    t = 0.0
    while t < T - 1e-14:
        h, q, dt = _step_arrays(h, q, dx, g, 0.4, "mc", dt_max=T - t)
        t += dt
    ph0 = np.angle(np.fft.rfft(np.cos(kappa * x))[1])
    ph1 = np.angle(np.fft.rfft(h - H)[1])
    dphi = np.angle(np.exp(1j * (ph1 - ph0)))
    c_num = -dphi / (kappa * T)
    assert abs(c_num / c_exact - 1.0) <= 1e-2


def test_unperturbed_train_is_steady_over_one_period():
    cfg = base_config(cells_per_wavelength=400)
    field = sw.init_wavetrain(cfg)
    wave = sw.build_wave(BASE, G, -1)
    h0 = field.h.copy()
    T = wave.L / abs(wave.D)
    t = 0.0
    while t < T - 1e-12:
        field = sw.step(field, cfl=0.45, dt_max=T - t)
        t = field.t
    err = float(np.sqrt(np.sum((field.h - h0) ** 2) * field.dx))
    assert err <= 1e-3


# --- diagnostics and portraits -----------------------------------------------------

def test_diagnostics_still_water():
    n, H, dx = 50, 2.0, 0.1
    field = sw.SGNField(dx=dx, g=G, h=np.full(n, H), q=np.zeros(n))
    mass, mom, energy = sw.diagnostics(field)
    assert mass == pytest.approx(H * n * dx, rel=1e-15)
    assert mom == 0.0
    assert energy == pytest.approx(0.5 * G * H * H * n * dx, rel=1e-15)


def test_phase_portrait_of_exact_wave():
    field = sw.init_wavetrain(base_config(cells_per_wavelength=400))
    wave = sw.build_wave(BASE, G, -1)
    c = wave.constants
    hs = np.linspace(1.5, 2.0, 2001)
    curve_scale = float(np.max(c.m ** 2 * sw.oscillation_rhs(hs, c)))
    assert sw.portrait_residual(field, wave) <= 1e-2 * curve_scale
    # crest cells sit at the h-axis crossing of the loop
    pts = sw.phase_portrait(field)
    crest = int(np.argmax(field.h))
    assert abs(pts[crest, 1]) <= abs(c.m) * field.dx


def test_portrait_shape_still_water():
    field = sw.SGNField(dx=0.1, g=G, h=np.full(32, 1.7), q=np.zeros(32))
    pts = sw.phase_portrait(field)
    assert pts.shape == (32, 2)
    assert np.all(pts[:, 0] == 1.7)
    assert np.all(pts[:, 1] == 0.0)


# --- experiment driver ---------------------------------------------------------------

def test_run_experiment_checkpoints_and_artifacts(tmp_path):
    out = tmp_path / "run"
    res = sw.run_experiment(
        base_config(amplitude=1e-3), t_end=1.0,
        output_times=[0.4, 1.0], out_dir=out, cfl=0.45,
    )
    assert [t for t, _, _ in res.checkpoints] == [0.4, 1.0]
    assert res.n_steps > 0
    assert len(res.diag_series) == 3  # t = 0 plus both checkpoints
    for name in ("field_0000.csv", "field_0001.csv", "portrait_0000.csv",
                 "portrait_0001.csv", "diagnostics.csv", "manifest.txt"):
        assert (out / name).is_file()
    manifest = (out / "manifest.txt").read_text()
    assert "wavelength = " in manifest
    assert "n_cells = 64" in manifest
    assert "checkpoint_times = 0.4;1.0" in manifest
    field_lines = (out / "field_0000.csv").read_text().splitlines()
    assert field_lines[0] == "x,h,u"
    assert len(field_lines) == 65


def test_run_experiment_accepts_array_output_times():
    runs = [sw.run_experiment(base_config(amplitude=1e-3), t_end=0.1, output_times=times)
            for times in ([0.05, 0.1], np.array([0.05, 0.1]))]
    listed, arrayed = (res.checkpoints for res in runs)
    assert [t for t, _, _ in arrayed] == [t for t, _, _ in listed] == [0.05, 0.1]
    for (_, a, _), (_, b, _) in zip(arrayed, listed):
        assert np.array_equal(a.h, b.h) and np.array_equal(a.q, b.q)


def test_run_experiment_is_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        sw.run_experiment(base_config(amplitude=1e-3), t_end=0.8,
                          output_times=[0.8], out_dir=out)
        outs.append(out)
    for name in ("field_0000.csv", "portrait_0000.csv", "diagnostics.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _failing_step(monkeypatch, on_call, fail):
    """Make the on_call-th _step_arrays call fail(h, q, dt_max); return the dt of the others."""
    real, dts = solver._step_arrays, []

    def stepping(h, q, dx, g, cfl, limiter, dt_max=None):
        if len(dts) + 1 == on_call:
            return fail(h, q, dt_max)
        out = real(h, q, dx, g, cfl, limiter, dt_max)
        dts.append(out[2])
        return out

    monkeypatch.setattr(solver, "_step_arrays", stepping)
    return dts


@pytest.mark.parametrize("error", [PositivityError, EllipticSolveError])
def test_run_experiment_errors_name_the_step_and_time(monkeypatch, tmp_path, error):
    def fail(h, q, dt_max):
        raise error("at cell 5")

    dts = _failing_step(monkeypatch, 3, fail)
    with pytest.raises(error) as info:
        sw.run_experiment(base_config(amplitude=1e-3), t_end=0.5, out_dir=tmp_path)
    t = 0.0 + dts[0] + dts[1]
    assert re.fullmatch(rf"step 3 from t = {re.escape(repr(t))}: at cell 5", str(info.value))
    assert "n_steps = 2\n" in (tmp_path / "manifest.txt").read_text()


def test_run_experiment_stops_when_dt_collapses(monkeypatch):
    dts = _failing_step(monkeypatch, 2, lambda h, q, dt_max: (h, q, 1e-20))
    with pytest.raises(StepBudgetError) as info:
        sw.run_experiment(base_config(amplitude=1e-3), t_end=0.5)
    message = rf"step 2 from t = {re.escape(repr(0.0 + dts[0]))} took dt = 1e-20, below "
    assert re.match(message, str(info.value))


def test_run_experiment_allows_a_short_step_onto_a_checkpoint():
    # the step clipped onto t = 1 + 1.5e-12 is shorter than 1e-12 * t_end
    # but was asked for; only a CFL step that short counts as a collapse
    times = [1.0, 1.0 + 1.5e-12, 2.0]
    res = sw.run_experiment(base_config(amplitude=1e-3), t_end=2.0, output_times=times)
    assert [t for t, _, _ in res.checkpoints] == times


def test_run_experiment_validation(tmp_path):
    with pytest.raises(ValueError):
        sw.run_experiment(base_config(), t_end=0.0)
    # every argument is checked before the run directory is created
    out = tmp_path / "run"
    bad = [dict(cfl=c) for c in (0.0, -0.1, np.nan, 1.5)]
    bad += [dict(limiter="superbee"), dict(t_end=np.nan), dict(t_end=np.inf)]
    bad += [dict(output_times=[t]) for t in (1.5, 0.0, -1.0, np.nan)]
    for kw in bad:
        with pytest.raises(ValueError):
            sw.run_experiment(base_config(), **{"t_end": 1.0, "out_dir": out, **kw})
        assert not out.exists()
