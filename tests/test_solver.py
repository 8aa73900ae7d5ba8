"""Tests for the time-domain solver.

The checks are structural rather than numeric where possible: exact
fixed points, conservation to rounding, bitwise equivariance under grid
rotation and of a hydrostatic stage under reflection, reflection
symmetry, Galilean invariance at the scheme's order, the linear
dispersion relation measured from the phase drift of a small sinusoid,
and the damping and phase error of a linear mode per limiter.  Accuracy against
the exact traveling wave is covered by the convergence tests.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrf, dpttrs

import sgnwaves as sw
from sgnwaves import solver
from sgnwaves.errors import EllipticSolveError, InvalidRootsError, PositivityError, StepBudgetError
from sgnwaves.solver import (
    LIMITERS,
    _anchor_cell,
    _block_length,
    _hydro_step,
    _nonhydro_pressure,
    _pressure_operator,
    _stage,
)

BASE = sw.RootTriple(1.0, 1.5, 2.0)
G = 10.0


def base_config(**kw):
    args = dict(roots=BASE, g=G, sign_m=-1, n_waves=1,
                amplitude=0.0, cells_per_wavelength=64)
    args.update(kw)
    return sw.WaveTrainConfig(**args)


def _one_stage(h, q, dx, g, cfl, limiter, dt_max=math.inf):
    """`step` on bare arrays: a run's chain stopped after one stage; returns h, q and dt."""
    run = solver._Run(dx, g, cfl, limiter, dt_floor=0.0)
    h, q = run.advance(np.array((h, q)), dt_max, max_steps=1)
    return h, q, run.t


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
    for t in (np.nan, np.inf):
        # a NaN time used to step on as NaN
        with pytest.raises(ValueError, match=re.escape(f"got t={t!r}")):
            sw.SGNField(dx=0.1, g=G, h=np.ones(3), q=np.zeros(3), t=t)
    for t, dtype in (("0", "<U1"), (None, "object")):
        # a string used to fail inside step
        with pytest.raises(ValueError, match=re.escape(f"t must hold real numbers, got t of dtype {dtype}")):
            sw.SGNField(dx=0.1, g=G, h=np.ones(3), q=np.zeros(3), t=t)
    # the extremes hold any NaN or infinity, wherever it sits
    for bad in (np.inf, -np.inf, np.nan):
        for cell in (0, 2):
            q = np.zeros(3)
            q[cell] = bad
            with pytest.raises(ValueError, match="h and q must be finite everywhere"):
                sw.SGNField(dx=0.1, g=G, h=np.ones(3), q=q)
    for cell in (0, 2):
        h = np.ones(3)
        h[cell] = np.nan
        with pytest.raises(ValueError, match="h and q must be finite everywhere"):
            sw.SGNField(dx=0.1, g=G, h=h, q=np.zeros(3))
    with pytest.raises(PositivityError, match="initial depth must be positive everywhere"):
        sw.SGNField(dx=0.1, g=G, h=np.array([1.0, 1.0, 0.0]), q=np.zeros(3))


def _with(n, cells, base=1.0):
    """n cells of value base, except at the given {cell: value} entries."""
    v = np.full(n, base)
    for i, value in cells.items():
        v[i] = value
    return v


@pytest.mark.parametrize("h, q, error, message", [
    (np.ones(20), _with(20, {17: np.nan}, 0.0), ValueError,
     "h and q must be finite everywhere, got q[17] = nan"),
    (_with(12, {1: np.inf, 4: np.nan}), np.zeros(12), ValueError,
     "h and q must be finite everywhere, got h[1] = inf"),
    (_with(12, {6: np.nan}), _with(12, {2: -np.inf}, 0.0), ValueError,
     "h and q must be finite everywhere, got h[6] = nan"),
    (np.ones(5), _with(5, {0: -np.inf}, 0.0), ValueError,
     "h and q must be finite everywhere, got q[0] = -inf"),
    (_with(11, {9: -0.25, 10: -1.0}), np.zeros(11), PositivityError,
     "initial depth must be positive everywhere, got h[9] = -0.25"),
    (_with(3, {2: 0.0}), np.zeros(3), PositivityError,
     "initial depth must be positive everywhere, got h[2] = 0.0"),
    (_with(4, {3: -0.0}), np.zeros(4), PositivityError,
     "initial depth must be positive everywhere, got h[3] = -0.0"),
], ids=["nan in q", "inf then nan in h", "h before q", "-inf in q", "negative h", "zero h",
        "-0.0 h"])
def test_field_errors_name_the_first_bad_cell(h, q, error, message):
    with pytest.raises(error) as info:
        sw.SGNField(dx=0.1, g=G, h=h, q=q)
    assert str(info.value) == message


def _real_states():
    rng = np.random.default_rng(3)
    h, q = rng.integers(2, 4, 64), rng.integers(-1, 2, 64)
    wave = sw.init_wavetrain(base_config(cells_per_wavelength=32))
    return {
        "int64": (h, q),
        "int8 h, bool q": (h.astype(np.int8), q > 0),
        "float32": (wave.h.astype(np.float32), wave.q.astype(np.float32)),
        "list": (wave.h.tolist(), wave.q.tolist()),
    }


@pytest.mark.parametrize("name", _real_states())
def test_field_of_any_real_dtype_steps_as_its_float64_copy(name):
    h, q = _real_states()[name]
    field = sw.SGNField(dx=0.1, g=G, h=h, q=q)
    copy = sw.SGNField(dx=0.1, g=G, h=np.array(h, dtype=np.float64),
                       q=np.array(q, dtype=np.float64))
    assert field.h.dtype == field.q.dtype == np.float64
    a, b = sw.step(field, cfl=0.45), sw.step(copy, cfl=0.45)
    assert a.t == b.t
    assert np.array_equal(_bits(a.h), _bits(b.h)) and np.array_equal(_bits(a.q), _bits(b.q))


def test_field_keeps_float64_arrays():
    h, q = np.ones(8), np.zeros(8)
    field = sw.SGNField(dx=0.1, g=G, h=h, q=q)
    assert field.h is h and field.q is q


@pytest.mark.parametrize("h, q, dtype", [
    (np.ones(8, dtype=complex), np.zeros(8), "complex128"),
    (np.ones(8), np.zeros(8, dtype=object), "object"),
    (np.ones(8), np.array(["0"] * 8), "<U1"),
], ids=["complex", "object", "str"])
def test_field_rejects_non_real_dtypes(h, q, dtype):
    with pytest.raises(ValueError, match=f"must hold real numbers, got . of dtype {dtype}"):
        sw.SGNField(dx=0.1, g=G, h=h, q=q)


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
    with pytest.raises(InvalidRootsError, match="got g=0.0"):
        base_config(g=0.0)
    with pytest.raises(InvalidRootsError, match="got 2"):
        base_config(sign_m=2)


@pytest.mark.parametrize("size, value", [("n_waves", 2.5), ("cells_per_wavelength", 400.5)])
def test_config_sizes_are_whole_numbers(size, value):
    # 2.5 waves leave a jump at the periodic wrap; 400.5 cells per wave give
    # a grid longer than the train
    with pytest.raises(ValueError, match=f"{size} must be a whole number, got {value}"):
        base_config(**{size: value})
    cfg = base_config(**{size: np.int64(32)})
    assert sw.init_wavetrain(cfg).n_cells == cfg.n_waves * cfg.cells_per_wavelength


@pytest.mark.parametrize("n_waves, cells, n_cells", [
    (np.uint8(200), np.uint8(16), 3200), (np.int8(2), np.int8(100), 200),
], ids=["uint8", "int8"])
def test_config_sizes_become_python_ints(n_waves, cells, n_cells):
    # their product used to wrap in the sizes' own width: a 128-cell grid for
    # 200 waves, and no cells at all for the int8 pair
    cfg = base_config(n_waves=n_waves, cells_per_wavelength=cells)
    assert type(cfg.n_waves) is type(cfg.cells_per_wavelength) is int
    assert sw.init_wavetrain(cfg).n_cells == n_cells


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "np.bool"])
@pytest.mark.parametrize("size", ["n_waves", "cells_per_wavelength"])
def test_config_sizes_are_not_bools(size, flag):
    # n_waves=True used to run one wave and write "n_waves = True" to the manifest
    with pytest.raises(ValueError, match=re.escape(f"{size} must be a whole number, got {flag!r}")):
        base_config(**{size: flag})


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


@pytest.mark.parametrize("dt_max", [-0.01, 0.0, np.nan])
def test_step_rejects_a_non_positive_or_nan_dt_max(dt_max, monkeypatch):
    # these used to step back in time, return a zero step, or be ignored
    field = sw.SGNField(dx=0.1, g=G, h=1.0 + 0.1 * np.cos(np.arange(64) / 4.0), q=np.zeros(64))
    monkeypatch.setattr(solver, "_stage", lambda *args: pytest.fail("stepped"))
    with pytest.raises(ValueError, match=rf"dt_max must be positive, got {dt_max}"):
        sw.step(field, cfl=0.45, dt_max=dt_max)


def _random_field(t):
    h, q, dx = _random_state()
    return sw.SGNField(dx=dx, g=G, h=h, q=q, t=t)


def test_step_takes_a_stage_however_small_dt_max_is():
    # a chain takes stages while t < t_target, however close t_target is: this
    # one takes its stage clipped onto t = 1e-13 and lands there
    field = _random_field(0.0)
    stepped = sw.step(field, cfl=0.45, dt_max=1e-13)
    assert stepped.t == 1e-13
    assert not np.array_equal(stepped.q, field.q)


@pytest.mark.parametrize("dt_max", [np.inf, 1.0])
def test_step_with_a_dt_max_above_the_cfl_step_is_step_without_one_bitwise(dt_max):
    # one stage, not a chain on to t + dt_max
    field = _random_field(3.25)
    free, capped = sw.step(field, cfl=0.45), sw.step(field, cfl=0.45, dt_max=dt_max)
    assert free.t == capped.t > 3.25
    assert np.array_equal(_bits(free.h), _bits(capped.h))
    assert np.array_equal(_bits(free.q), _bits(capped.q))


def test_step_errors_name_the_time_of_the_field(monkeypatch):
    def dried(*args):
        raise PositivityError("at cell 5")

    monkeypatch.setattr(solver, "_hydro_step", dried)
    with pytest.raises(PositivityError, match=r"^step 1 from t = 3\.25: at cell 5$"):
        sw.step(_random_field(3.25), cfl=0.45)


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
    h1, q1, _ = _one_stage(h, q, 0.05, G, 0.4, "mc")
    h2, q2, _ = _one_stage(np.roll(h, shift), np.roll(q, shift), 0.05, G, 0.4, "mc")
    assert np.array_equal(np.roll(h1, shift), h2)
    assert np.array_equal(np.roll(q1, shift), q2)


def test_translation_equivariance_tiled_bitwise():
    # a tiled unperturbed train has bitwise-identical crest cells, so any
    # positional tie-breaking inside the cyclic solve would show up here
    field = sw.init_wavetrain(base_config(n_waves=3))
    shift = 64  # exactly one wavelength
    h1, q1, _ = _one_stage(field.h, field.q, field.dx, G, 0.45, "mc")
    h2, q2, _ = _one_stage(np.roll(field.h, shift), np.roll(field.q, shift),
                           field.dx, G, 0.45, "mc")
    assert np.array_equal(np.roll(h1, shift), h2)
    assert np.array_equal(np.roll(q1, shift), q2)


def _assert_rotation_equivariant(h, q, dx, shift, limiter="mc"):
    h1, q1, _ = _one_stage(h, q, dx, G, 0.45, limiter)
    h2, q2, _ = _one_stage(np.roll(h, shift), np.roll(q, shift), dx, G, 0.45, limiter)
    assert np.array_equal(np.roll(h1, shift), h2)
    assert np.array_equal(np.roll(q1, shift), q2)


def test_translation_equivariance_still_water_4000_cells():
    # every diagonal entry ties: the anchor search runs to full depth
    _assert_rotation_equivariant(np.full(4000, 2.0), np.zeros(4000), 0.05, 1237)


@pytest.mark.parametrize("n", [6, 12])
def test_still_water_with_one_negative_zero_is_rotation_equivariant_bitwise(n):
    # +0.0 and -0.0 compare equal, but a copy of a block holds its own signs:
    # q is not made of copies of its first block, so no block may be tiled
    h, q = np.full(n, 1.5), np.zeros(n)
    q[1] = -0.0
    h1, q1, _ = _one_stage(h, q, 0.05, G, 0.45, "mc")
    for shift in range(1, n):
        h2, q2, _ = _one_stage(np.roll(h, shift), np.roll(q, shift), 0.05, G, 0.45, "mc")
        assert np.array_equal(_bits(np.roll(h1, shift)), _bits(h2)), shift
        assert np.array_equal(_bits(np.roll(q1, shift)), _bits(q2)), shift


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
    hb, qb, dt = _one_stage(h, q, dx, G, 0.45, limiter)
    # the full-length reference: one stage and the closing half-step on all n cells
    run = solver._Run(dx, G, 0.45, limiter, dt_floor=0.0)
    U, dt_full = _stage(np.array((h, q)), run, 0.0, math.inf)
    hf, qf = _hydro_step(U, dx, 0.5 * dt_full, G, limiter)
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
    q = np.zeros(12)
    q[5] = -0.0
    yield pytest.param(np.full(12, 1.5), q, 12, id="constant h, one -0.0 in q")
    yield pytest.param(np.full(12, 1.5), np.tile([0.0, -0.0], 6), 2, id="constant h, q = 0, -0, ...")
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
    assert _block_length(np.array((h, q))) == m


def test_reflection_symmetry():
    field = sw.init_wavetrain(base_config(amplitude=1e-2))
    h1, q1, _ = _one_stage(field.h, field.q, field.dx, G, 0.45, "mc")
    hr = field.h[::-1].copy()
    qr = -field.q[::-1].copy()
    h2, q2, _ = _one_stage(hr, qr, field.dx, G, 0.45, "mc")
    assert np.max(np.abs(h2 - h1[::-1])) <= 1e-12
    assert np.max(np.abs(q2 + q1[::-1])) <= 1e-12


def test_galilean_invariance_at_second_order():
    # a current c = L/(2T) carries the train half a wavelength further by T = L/|D|;
    # rolled back, it matches the train without one up to the scheme's error
    errors = []
    for n in (50, 100, 200):
        cfg = base_config(n_waves=2, cells_per_wavelength=n)
        T = cfg.wave.L / abs(cfg.wave.D)
        field = sw.init_wavetrain(cfg)
        ends = []
        for f in (field, dataclasses.replace(field, q=field.q + cfg.wave.L / (2 * T) * field.h)):
            while f.t < T:
                f = sw.step(f, 0.45, dt_max=T - f.t)
            ends.append(f.h)
        errors.append(np.max(np.abs(ends[0] - np.roll(ends[1], -(n // 2)))))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.8, (errors, orders)
    assert errors[-1] <= 1.3e-4, errors


def test_positivity_guard_raises():
    h = np.full(64, 1e-3)
    h[32] = 2.0
    q = np.zeros(64)
    q[:32] = -5.0
    q[33:] = 5.0
    message = r"face depth lost positivity at cell 32 \(h = -152\.86"
    with pytest.raises(PositivityError, match=message):
        _one_stage(h, q, 0.01, G, 0.9, "mc")


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
        _one_stage(h, np.zeros(64), 0.05, G, 0.45, "mc")


def test_positivity_error_names_a_cell_dried_before_the_pressure_solve(monkeypatch):
    # the opening hydrostatic half step (the first call) leaves two cells dry;
    # the check after it names them before the dispersive operator is built
    hydro, calls = solver._hydro_step, []

    def drying_hydro(*args):
        U = hydro(*args)
        calls.append(None)
        if len(calls) == 1:
            U = U.copy()
            U[0, [9, 40]] = -0.25
        return U

    monkeypatch.setattr(solver, "_hydro_step", drying_hydro)
    h = 1.0 + 0.01 * np.random.default_rng(3).random(64)    # aperiodic: all 64 cells step
    with pytest.raises(PositivityError, match=r"at cell 9 \(h = -0\.25\)"):
        _one_stage(h, np.zeros(64), 0.05, G, 0.45, "mc")
    assert len(calls) == 1


def test_failed_factorization_at_positive_depth_is_an_elliptic_solve_error(monkeypatch):
    monkeypatch.setattr(solver, "dpttrf", lambda d, e: (d, e, 3))
    h = 1.0 + 0.01 * np.random.default_rng(3).random(64)
    with pytest.raises(EllipticSolveError, match=r"not positive definite \(info 3\)"):
        _pressure_operator(h, 0.05, G)


def test_nonfinite_depth_is_an_elliptic_solve_error():
    h = np.full(64, 1.0)
    h[17] = np.nan
    with pytest.raises(EllipticSolveError, match=r"cell 17"):
        _one_stage(h, np.zeros(64), 0.05, G, 0.45, "mc")


def test_a_nan_depth_after_a_hydrostatic_stage_is_a_nonfinite_state(monkeypatch):
    # the opening hydrostatic stage leaves NaN depths, as one whose g h^2/2
    # leaves the float range does: the check after it names the first as a
    # non-finite state, not as lost positivity
    hydro = solver._hydro_step

    def nan_hydro(*args):
        U = hydro(*args)
        U[0, [9, 40]] = np.nan
        return U

    monkeypatch.setattr(solver, "_hydro_step", nan_hydro)
    h = 1.0 + 0.01 * np.random.default_rng(3).random(64)    # aperiodic: all 64 cells step
    field = sw.SGNField(dx=0.05, g=G, h=h, q=np.zeros(64))
    with pytest.raises(EllipticSolveError, match=r"^step 1 from t = 0\.0: non-finite state at cell 9: h = nan, q = "):
        sw.step(field, cfl=0.45)


@pytest.mark.parametrize("field, value", [("h", np.inf), ("q", np.nan), ("q", -np.inf)])
def test_nonfinite_state_names_its_first_cell(field, value):
    # NaN makes dt NaN and inf makes it 0; either way no substep may run
    state = {"h": np.ones(64), "q": np.zeros(64)}
    state[field][40] = value
    h, q = (repr(float(state[k][40])) for k in "hq")
    with pytest.raises(EllipticSolveError, match=rf"non-finite state at cell 40: h = {h}, q = {q}$"):
        _one_stage(state["h"], state["q"], 0.05, G, 0.45, "mc")


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

# no numpy warning from the solve at depths of 2^-200 and 2^200
@pytest.mark.parametrize("n", [64, 3])
def test_pressure_solve_matches_dense_cyclic_matrix(n):
    rng = np.random.default_rng(n)
    h1 = 0.5 + rng.random(n)
    q1 = rng.standard_normal(n)
    # also at depths of 2^-200 and 2^200, where the corner weight, ~ depth^-3,
    # would leave the float range if it were squared
    for k in (0, -200, 200):
        h, q, dx = h1 * 2.0 ** k, q1 * 2.0 ** (1.5 * k), 0.1 * 2.0 ** k
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
        # one periodic ghost cell at each end
        assert (p[0], p[-1]) == (p[-2], p[1])
        assert np.max(np.abs(p[1:-1] - expected)) <= 1e-12 * np.max(np.abs(expected))


# The scheme is dimensionally homogeneous: h -> 2^k h, dx -> 2^k dx and
# q -> 2^(3k/2) q (k even) scale every term of a sum by one power of two,
# so a step or a run maps onto the unscaled one bit for bit, with
# t -> 2^(k/2) t, as long as no intermediate leaves the float range.

# no numpy warning: no intermediate of a scaled step leaves the float range
@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("k", [-300, -200, 200, 300])
def test_a_step_is_exact_under_power_of_two_depth_scaling(k, limiter):
    rng = np.random.default_rng(64)
    h, q, dx = 1.0 + 0.3 * rng.random(64), 0.2 * rng.standard_normal(64), 0.05
    one = sw.step(sw.SGNField(dx=dx, g=G, h=h, q=q), cfl=0.45, limiter=limiter)
    scaled = sw.SGNField(dx=dx * 2.0 ** k, g=G, h=h * 2.0 ** k, q=q * 2.0 ** (1.5 * k))
    got = sw.step(scaled, cfl=0.45, limiter=limiter)
    assert np.array_equal(_bits(got.h), _bits(one.h * 2.0 ** k))
    assert np.array_equal(_bits(got.q), _bits(one.q * 2.0 ** (1.5 * k)))
    assert got.t == one.t * 2.0 ** (k // 2)


# no numpy warning: no intermediate of a scaled run leaves the float range
@pytest.mark.parametrize("k", [-200, 200])
def test_a_run_is_exact_under_power_of_two_depth_scaling(k):
    def run(k):
        s, t = 2.0 ** k, 2.0 ** (k // 2)
        cfg = base_config(roots=sw.RootTriple(s, 1.5 * s, 2.0 * s), amplitude=1e-3,
                          cells_per_wavelength=32)
        return sw.run_experiment(cfg, 0.2 * t, output_times=[0.1 * t])

    one, got = run(0), run(k)
    assert got.n_steps == one.n_steps
    assert (got.h_min, got.h_max) == (one.h_min * 2.0 ** k, one.h_max * 2.0 ** k)
    (t1, last1), (t, last) = one.checkpoints[-1], got.checkpoints[-1]
    assert t == t1 * 2.0 ** (k // 2)
    assert np.array_equal(_bits(last.q), _bits(last1.q * 2.0 ** (1.5 * k)))


def test_one_step_anchors_and_factors_once(monkeypatch):
    # and solves three times: the Sherman-Morrison column and two Heun stages
    calls = {"_anchor_cell": 0, "dpttrf": 0, "dpttrs": 0}
    for name in calls:
        def counted(*args, _fn=getattr(solver, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(solver, name, counted)
    sw.step(sw.init_wavetrain(base_config(amplitude=1e-3)), cfl=0.45)
    assert calls == {"_anchor_cell": 1, "dpttrf": 1, "dpttrs": 3}


def test_a_train_builds_its_wave_once(monkeypatch, tmp_path):
    calls = {"build_wave": 0, "constants_from_roots": 0}
    for module, name in ((solver, "build_wave"), (sw.waves, "build_wave"),
                         (sw.waves, "constants_from_roots")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    cfg = base_config(amplitude=1e-3)
    assert calls == {"build_wave": 1, "constants_from_roots": 1}
    # the run, its initial train and its manifest read the config's wave
    res = sw.run_experiment(cfg, 1e-3, out_dir=tmp_path)
    sw.init_wavetrain(cfg)
    assert calls == {"build_wave": 1, "constants_from_roots": 1}
    assert res.config.wave is cfg.wave
    # a replaced config derives one wave of its own
    wider = dataclasses.replace(cfg, n_waves=2)
    assert calls == {"build_wave": 2, "constants_from_roots": 2}
    assert wider.wave is not cfg.wave
    assert wider.wave == cfg.wave == sw.state_at_rest(BASE, G, -1)


# --- the np.roll formulation of the solver's formulas ----------------------------
#
# A compact restatement of the scheme with np.roll and separate h and q
# arrays, in the solver's order of operations, so the results must match bit
# for bit: the bit contract of the stacked (h, q) state, the slice
# concatenations and the rotated frame of the pressure solve.

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
    """Half the limited slope of each cell, in clip form."""
    dl = v - np.roll(v, 1)
    dr = np.roll(v, -1) - v
    lo = np.minimum(np.maximum(dl, dr), 0.0)
    hi = np.maximum(np.minimum(dl, dr), 0.0)
    if limiter == "minmod":
        return (lo + hi) * 0.5
    c = (dl + dr) * 0.25
    return c if limiter == "central" else np.minimum(np.maximum(c, lo), hi)


def _ref_flux(h, q, g):
    return q, q * (q / h) + 0.5 * g * h * h


def _ref_hydro_step(h, q, dx, dt, g, limiter):
    sh, sq = _ref_slopes(h, limiter), _ref_slopes(q, limiter)
    hR, qR, hL, qL = h + sh, q + sq, h - sh, q - sq
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
    wr, wl, k = sr / den, -sl / den, sl * sr / den
    Fh = wr * flh + wl * frh + k * (hr - hl)
    Fq = wr * flq + wl * frq + k * (qr - ql)
    return h - dt / dx * (Fh - np.roll(Fh, 1)), q - dt / dx * (Fq - np.roll(Fq, 1))


def _ref_dispersive_step(h, q, dx, dt, g):
    w_plus = 2.0 / (dx * dx) / (h + np.roll(h, -1))
    diag = 3.0 / (h * h * h) + w_plus + np.roll(w_plus, 1)
    shift = _ref_anchor_cell(diag)
    d = np.roll(diag, -shift)
    off = np.roll(-w_plus, -shift)
    d0, corner = d[0], off[-1]
    r = corner / d0
    d[0] += d0
    d[-1] += corner * r
    d, e, _ = dpttrf(d, off[:-1])
    w = np.zeros_like(d)
    w[[0, -1]] = -d0, corner
    z, _ = dpttrs(d, e, w)
    v_last = -r
    zs = z / (1.0 + z[0] + v_last * z[-1])
    g_hxx = ((np.roll(h, -1) - h) - (h - np.roll(h, 1))) * (g / (dx * dx))

    def dp(qq):
        # p[i+1] - p[i-1] of the pressure of qq
        u = qq / h
        du = np.roll(u, -1) - np.roll(u, 1)
        y, _ = dpttrs(d, e, np.roll(du * du * (0.5 / (dx * dx)) + g_hxx, -shift))
        p = np.roll(y - (y[0] + v_last * y[-1]) * zs, shift)
        return np.roll(p, -1) - np.roll(p, 1)

    dp1 = dp(q)
    q1 = q - dt / (2.0 * dx) * dp1
    return q - dt / (4.0 * dx) * (dp1 + dp(q1))


def _ref_step(h, q, dx, g, cfl, limiter):
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


def _plateau_state():
    # runs of exactly equal cells and stretches of q = +0.0 and -0.0: flat
    # slopes (dl * dr = 0), c = 0 in the limiter and HLL jumps that vanish;
    # the three tied maxima do not make the state periodic
    h = np.repeat([1.0, 1.2, 1.2, 1.05, 1.3, 1.0, 1.3, 1.0], [9, 5, 4, 7, 1, 6, 2, 6])
    q = np.zeros(40)
    q[9:14] = 0.1
    q[20:23] = -0.05
    q[30:] = -0.0
    return h, q, 0.05


def _two_cell_state():
    return np.array([1.0, 1.2]), np.array([0.1, -0.0]), 0.05


def _still_state():
    # at rest with q = -0.0: every flux difference and acceleration is a
    # zero, and its sign decides the sign of each q after the step
    return np.full(6, 1.5), np.full(6, -0.0), 0.05


def _three_cell_state():
    return np.array([1.1, 1.0, 1.3]), np.array([0.0, 0.2, -0.1]), 0.05


def _bits(a):
    """The IEEE bit pattern of each value, so that -0.0 and +0.0 differ."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


STATES = {
    "random": _random_state,
    "desk": _desk_state,
    "plateau": _plateau_state,
    "still": _still_state,
    "2 cells": _two_cell_state,
    "3 cells": _three_cell_state,
}


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("state", STATES.values(), ids=STATES.keys())
def test_step_matches_roll_reference_bitwise(state, limiter):
    h, q, dx = state()
    ref_h, ref_q = h, q
    for _ in range(20):
        h, q, dt = _one_stage(h, q, dx, G, 0.45, limiter)
        ref_h, ref_q, ref_dt = _ref_step(ref_h, ref_q, dx, G, 0.45, limiter)
        assert _bits(dt) == _bits(ref_dt)
        assert np.array_equal(_bits(h), _bits(ref_h))
        assert np.array_equal(_bits(q), _bits(ref_q))


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("state", STATES.values(), ids=STATES.keys())
def test_a_hydrostatic_stage_commutes_with_reflection_bitwise(state, limiter):
    # x -> -x, u -> -u swaps the two HLL weights and keeps k, and the slopes
    # and wave speeds are symmetric in the two neighbours, so the stage is
    # reflection-equivariant bit for bit, signed zeros included
    h, q, dx = state()
    dt = solver._cfl_dt(h, q, dx, G, 0.45, math.inf)
    U = _hydro_step(np.array((h, q)), dx, dt, G, limiter)
    R = _hydro_step(np.array((h[::-1], -q[::-1])), dx, dt, G, limiter)
    assert np.array_equal(_bits(U[0]), _bits(R[0, ::-1]))
    assert np.array_equal(_bits(U[1]), _bits(-R[1, ::-1]))


def _slope_inputs(rng, n):
    """Periodic rows whose neighbour differences are finite but extreme."""
    palette = [0.0, -0.0, 5e-324, -5e-324, 2.5e-322, 1e-310, -3e-200, 1e-200,
               1.0, -1.0, 0.5, 3.0, 4e307, -4e307, 8.9e307, -8.9e307]
    return {
        "signed zeros": rng.choice([0.0, -0.0, 1.0, -1.0], n),
        "subnormals": rng.integers(-4, 5, n) * 5e-324,
        # two equal steps in a row tie |dl| and |dr|, with one sign
        "tied magnitudes": np.cumsum(rng.choice([-1.0, 0.0, 1.0, 2.0], n)),
        # dl * dr underflows to a subnormal or to 0
        "underflowing products": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-250, -150, n),
        # |differences| up to 1.78e308: their sum, their product overflow
        "near 1e308": rng.uniform(-0.89, 0.89, n) * 1e308,
        "all of these": rng.choice(palette, n),
    }


@pytest.mark.parametrize("limiter", LIMITERS)
def test_slopes_match_the_roll_reference_bitwise(limiter):
    # cases that the runs of the other tests do not reach: signed zeros,
    # subnormals, ties, products that underflow to 0, and sums and products
    # that overflow
    rng = np.random.default_rng(28)
    for _ in range(5):
        for name, v in _slope_inputs(rng, 512).items():
            assert np.isfinite(v - np.roll(v, 1)).all(), name
            with np.errstate(over="ignore"):
                refs = [_ref_slopes(v, limiter), _ref_slopes(-v, limiter)]
                rows = solver._slopes(solver._cyclic_pad(np.array((v, -v)), 1), limiter)
            for row, ref in zip(rows, refs):    # as the stacked (h, q) state is limited
                assert np.array_equal(_bits(row), _bits(ref)), name


def _textbook_slopes(v, limiter):
    """The limited slopes in sign-and-mask form (van Leer 1977; Sweby 1984)."""
    dl = v - np.roll(v, 1)
    dr = np.roll(v, -1) - v
    c = 0.5 * (dl + dr)
    if limiter == "central":
        return c
    if limiter == "minmod":
        return np.where(dl * dr <= 0.0, 0.0, np.where(np.abs(dl) < np.abs(dr), dl, dr))
    lim = 2.0 * np.minimum(np.abs(dl), np.abs(dr))
    return np.where(dl * dr <= 0.0, 0.0, np.sign(c) * np.minimum(np.abs(c), lim))


@pytest.mark.parametrize("limiter", LIMITERS)
def test_clip_form_slopes_are_half_the_textbook_slopes(limiter):
    # the clip form is an exact rewrite wherever no product dl * dr
    # underflows and no halving rounds: equal values, up to the sign of a zero
    rng = np.random.default_rng(36)
    for v in (rng.standard_normal(512), np.cumsum(rng.choice([-1.0, 0.0, 1.0, 2.0], 512)),
              rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], 512)):
        row = solver._slopes(solver._cyclic_pad(v), limiter)
        assert np.array_equal(row, 0.5 * _textbook_slopes(v, limiter))


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
    # mirror-symmetric, as a symmetric hump's diagonal is: the two halves
    # tie at every depth up to the middle
    half = rng.random((n + 1) // 2)
    yield np.concatenate((half, half[::-1]))[:n]
    half = rng.integers(0, 3, (n + 1) // 2).astype(float)
    yield np.concatenate((half[::-1], half))[-n:]
    # periodic but for one entry: every copy ties until the nudge
    period = int(rng.integers(1, n // 2 + 2))
    nudged = np.tile(rng.integers(0, 3, period), n // period + 1)[:n].astype(float)
    nudged[rng.integers(n)] += 0.5
    yield nudged


def test_anchor_matches_reference_loop_on_ties():
    rng = np.random.default_rng(2024)
    for n in range(1, 41):
        for _ in range(5):
            for key in _tie_heavy_keys(rng, n):
                assert _anchor_cell(key) == _ref_anchor_cell(key), key


@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_anchor_matches_reference_loop_on_small_alphabets(values):
    # the anchor compares values, so -0.0 ties +0.0 as in the reference
    key = np.array(values)
    assert _anchor_cell(key) == _ref_anchor_cell(key)


def test_anchor_of_a_hump_at_rest_matches_reference_loop(monkeypatch):
    # a symmetric hump at rest has a mirror-symmetric diagonal, whose two
    # crest cells tie exactly in many stages of the run
    keys = []

    def recorded(key):
        keys.append((key.copy(), _anchor_cell(key)))
        return keys[-1][1]

    monkeypatch.setattr(solver, "_anchor_cell", recorded)
    x = (np.arange(400) + 0.5) / 400
    field = sw.SGNField(dx=0.05, g=G, h=1.0 + 0.3 * np.exp(-(((x - 0.5) / 0.1) ** 2)),
                        q=np.zeros(400))
    for _ in range(40):
        field = sw.step(field, cfl=0.45)
    assert any(np.count_nonzero(key == key.max()) > 1 for key, _ in keys)
    for key, cell in keys:
        assert cell == _ref_anchor_cell(key)


@pytest.mark.parametrize("period", [1, 400, 4000])
def test_anchor_matches_reference_loop_on_4000_cells(period):
    rng = np.random.default_rng(period)
    # periods 1 and 400 tie every copy; random reals give one copy with a unique maximum
    block = rng.random(period) if period == 4000 else 1.0 + rng.integers(0, 4, period)
    key = np.tile(block, 4000 // period)
    assert (np.count_nonzero(key == key.max()) == 1) == (period == 4000)
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
        h, q, dt = _one_stage(h, q, dx, g, 0.4, "mc", dt_max=T - t)
        t += dt
    ph0 = np.angle(np.fft.rfft(np.cos(kappa * x))[1])
    ph1 = np.angle(np.fft.rfft(h - H)[1])
    dphi = np.angle(np.exp(1j * (ph1 - ph0)))
    c_num = -dphi / (kappa * T)
    assert abs(c_num / c_exact - 1.0) <= 1e-2


def _linear_mode_after_one_period(n, kappa_H, limiter):
    """Amplitude loss and phase error, in cycles, of a 1e-6 linear mode over one period.

    Still water H = 1, g = 9.81, n cells per wavelength, the exact linear SGN
    velocity, stepped one period of c^2 = g H / (1 + (kappa H)^2 / 3) at cfl
    0.45.  The phase error is the angle of the mode-1 Fourier coefficient
    after the period over its start; a negative one is a wave that ran ahead.
    """
    g, H = 9.81, 1.0
    lam = 2.0 * np.pi * H / kappa_H
    dx = lam / n
    x = (np.arange(n) + 0.5) * dx
    c = np.sqrt(g * H / (1.0 + kappa_H ** 2 / 3.0))
    h = H + 1e-6 * H * np.cos(2.0 * np.pi * x / lam)
    field = sw.SGNField(dx=dx, g=g, h=h, q=h * (c * (h - H) / H))
    period = lam / c
    while field.t < period:
        field = sw.step(field, cfl=0.45, limiter=limiter, dt_max=period - field.t)
    a0, a1 = np.fft.rfft(h - H)[1], np.fft.rfft(field.h - H)[1]
    return 1.0 - abs(a1) / abs(a0), np.angle(a1 / a0) / (2.0 * np.pi)


# (limiter, kappa H): amplitude loss per period and phase error in cycles at
# 64 cells per wavelength, as measured; the README table lists all of them
LINEAR_ERRORS_AT_64_CELLS = {
    ("mc", 0.5): (5.889e-4, -4.769e-4),
    ("mc", 2.0): (8.680e-4, -1.895e-3),
    ("minmod", 0.5): (8.534e-3, -4.452e-4),
    ("minmod", 2.0): (1.227e-2, -1.887e-3),
    ("central", 0.5): (4.943e-4, -4.529e-4),
    ("central", 2.0): (7.259e-4, -1.925e-3),
}
DAMPING_ORDER = {"mc": 2.5, "minmod": 1.8, "central": 2.5}


@pytest.mark.parametrize("limiter", LIMITERS)
def test_linear_damping_and_phase_error_per_limiter(limiter):
    # what the scheme resolves: mc and central damp a linear mode at third
    # order, minmod at second; the phase error is second order for all three
    for kappa_H in (0.5, 2.0):
        errors = np.array([_linear_mode_after_one_period(n, kappa_H, limiter) for n in (32, 64, 128)])
        damping, phase = errors.T
        assert (damping > 0.0).all() and (phase < 0.0).all(), errors
        orders = np.log2(errors[:-1] / errors[1:])
        assert orders[:, 0].min() >= DAMPING_ORDER[limiter], (kappa_H, orders)
        assert orders[:, 1].min() >= 1.8, (kappa_H, orders)
        measured = np.array(LINEAR_ERRORS_AT_64_CELLS[limiter, kappa_H])
        assert (errors[1] / measured <= 2.0).all(), (kappa_H, errors[1])


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
    assert [t for t, _ in res.checkpoints] == [0.4, 1.0]
    assert res.n_steps > 0
    assert len(res.diag_series) == 3  # t = 0 plus both checkpoints
    for name in ("field_0000.csv", "field_0001.csv", "portrait_0000.csv",
                 "portrait_0001.csv", "diagnostics.csv", "manifest.txt"):
        assert (out / name).is_file()
    manifest = (out / "manifest.txt").read_text()
    assert "wavelength = " in manifest
    assert "n_cells = 64" in manifest
    assert "checkpoint_times = 0.4;1.0" in manifest
    # the rest of the manifest is the run's own record, row by row
    rows = dict(row.split(" = ", 1) for row in manifest.splitlines())
    assert list(rows) == [
        "code_version", "roots", "g", "sign_m", "n_waves", "amplitude", "cells_per_wavelength",
        "n_cells", "dx", "wavelength", "phase_speed", "cfl", "limiter", "t_final", "n_steps",
        "h_min", "h_max", "checkpoint_times"]
    assert [rows[k] for k in ("t_final", "n_steps", "h_min", "h_max", "cfl", "limiter")] == [
        "1.0", str(res.n_steps), repr(res.h_min), repr(res.h_max), "0.45", "mc"]
    field_lines = (out / "field_0000.csv").read_text().splitlines()
    assert field_lines[0] == "x,h,u"
    assert len(field_lines) == 65


def test_manifest_records_numpy_numbers_as_floats(tmp_path):
    # a numpy g, amplitude or cfl is the float64 number it holds, in the run and its record
    sw.run_experiment(base_config(g=np.float32(10.0), amplitude=np.float32(0.25)), t_end=0.05,
                      out_dir=tmp_path / "numpy", cfl=np.float32(0.25))
    sw.run_experiment(base_config(g=10.0, amplitude=0.25), t_end=0.05,
                      out_dir=tmp_path / "float", cfl=0.25)
    manifest = (tmp_path / "numpy" / "manifest.txt").read_text()
    assert "g = 10.0\n" in manifest and "amplitude = 0.25\n" in manifest and "cfl = 0.25\n" in manifest
    for name in ("manifest.txt", "field_0000.csv", "diagnostics.csv"):
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "float" / name).read_bytes()


def test_run_experiment_writes_every_cell_by_repr(tmp_path):
    out = tmp_path / "run"
    res = sw.run_experiment(base_config(amplitude=1e-3), t_end=0.2,
                            output_times=[0.1, 0.2], out_dir=out)

    def columns(name):
        header, *rows = (out / name).read_text().splitlines()
        return header, list(zip(*(row.split(",") for row in rows)))

    def reprs(*arrays):
        return [tuple(map(repr, a.tolist())) for a in arrays]

    x_columns = []
    for idx, (_, snap) in enumerate(res.checkpoints):
        field_header, field_cols = columns(f"field_{idx:04d}.csv")
        portrait_header, portrait_cols = columns(f"portrait_{idx:04d}.csv")
        assert (field_header, portrait_header) == ("x,h,u", "h,h_hdot")
        assert field_cols == reprs(snap.x, snap.h, snap.u)
        assert portrait_cols == reprs(*sw.phase_portrait(snap).T)
        assert portrait_cols[0] == field_cols[1]    # one h column in both files
        x_columns.append(field_cols[0])
    assert len(x_columns) == 2 and x_columns[0] == x_columns[1]
    assert columns("diagnostics.csv") == ("t,mass,momentum,energy",
                                          reprs(*np.array(res.diag_series).T))


@pytest.mark.parametrize("times, shape", [(1e-4, ()), (np.array([[1e-4]]), (1, 1))],
                         ids=["scalar", "2-D"])
def test_output_times_must_be_one_dimensional(tmp_path, times, shape):
    # a scalar used to fail as "'float' object is not iterable", and a 2-D
    # array as "unhashable type: 'numpy.ndarray'"
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=re.escape(
            f"output_times must be 1-D, got output_times of shape {shape}")):
        sw.run_experiment(base_config(), 1e-3, output_times=times, out_dir=out)
    assert not out.exists()


def test_output_times_as_a_list_or_an_array_write_one_manifest(tmp_path):
    # a list, a tuple and an array, each in any order and with repeats
    manifests = []
    for i, times in enumerate(([5e-4, 1e-4, 5e-4], (1e-4, 5e-4), np.array([5e-4, 1e-4]))):
        out = tmp_path / str(i)
        sw.run_experiment(base_config(amplitude=1e-3), 1e-3, output_times=times, out_dir=out)
        manifests.append((out / "manifest.txt").read_bytes())
    assert b"checkpoint_times = 0.0001;0.0005;0.001\n" in manifests[0]
    assert manifests[1:] == manifests[:-1]


def test_run_experiment_accepts_array_output_times():
    runs = [sw.run_experiment(base_config(amplitude=1e-3), t_end=0.1, output_times=times)
            for times in ([0.05, 0.1], np.array([0.05, 0.1]))]
    listed, arrayed = (res.checkpoints for res in runs)
    assert [t for t, _ in arrayed] == [t for t, _ in listed] == [0.05, 0.1]
    for (_, a), (_, b) in zip(arrayed, listed):
        assert np.array_equal(a.h, b.h) and np.array_equal(a.q, b.q)


def test_run_experiment_is_deterministic(tmp_path):
    for limiter in LIMITERS:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{limiter}_{tag}"
            sw.run_experiment(base_config(amplitude=1e-3), t_end=0.8,
                              output_times=[0.8], out_dir=out, limiter=limiter)
            outs.append(out)
        # every file a run writes, its manifest included, depends only on the config
        files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in outs]
        assert sorted(files[0]) == ["diagnostics.csv", "field_0000.csv", "manifest.txt",
                                    "portrait_0000.csv"]
        assert files[0] == files[1]
        assert f"\nlimiter = {limiter}\n" in files[0]["manifest.txt"].decode()


def _failing_stage(monkeypatch, on_call, fail):
    """Make the on_call-th chain stage fail(U, dt_max); return the dt of the others."""
    real, dts = solver._stage, []

    def staging(U, run, dt_prev, dt_max):
        if len(dts) + 1 == on_call:
            return fail(U, dt_max)
        out = real(U, run, dt_prev, dt_max)
        dts.append(out[1])
        return out

    monkeypatch.setattr(solver, "_stage", staging)
    return dts


@pytest.mark.parametrize("error", [PositivityError, EllipticSolveError])
def test_run_experiment_errors_name_the_step_and_time(monkeypatch, tmp_path, error):
    def fail(U, dt_max):
        raise error("at cell 5")

    dts = _failing_stage(monkeypatch, 3, fail)
    with pytest.raises(error) as info:
        sw.run_experiment(base_config(amplitude=1e-3), t_end=0.5, out_dir=tmp_path)
    t = 0.0 + dts[0] + dts[1]
    assert re.fullmatch(rf"step 3 from t = {re.escape(repr(t))}: at cell 5", str(info.value))
    assert "n_steps = 2\n" in (tmp_path / "manifest.txt").read_text()


def test_a_failed_depth_check_is_not_recorded_in_the_envelope(monkeypatch, tmp_path):
    # the run checks a stage's depths before it widens the envelope to them:
    # the manifest's h_min is the least depth of the states before the failure
    hydro, h_mins = solver._hydro_step, []

    def drying_hydro(*args):
        U = hydro(*args)
        if len(h_mins) == 2:    # the third stage leaves two cells dry
            U = U.copy()
            U[0, [9, 40]] = -0.25
        h_mins.append(float(U[0].min()))
        return U

    monkeypatch.setattr(solver, "_hydro_step", drying_hydro)
    cfg = base_config(amplitude=1e-3)
    with pytest.raises(PositivityError, match=r"^step 3 from t = .*: .* at cell 9 \(h = -0\.25\)$"):
        sw.run_experiment(cfg, t_end=0.5, out_dir=tmp_path)
    h_min = min(float(sw.init_wavetrain(cfg).h.min()), *h_mins[:2])
    assert 0.0 < h_min
    assert f"h_min = {h_min!r}\n" in (tmp_path / "manifest.txt").read_text()


def test_run_experiment_names_the_step_a_closing_half_step_closes(monkeypatch, tmp_path):
    # the last hydrostatic stage of a chain closes step k: it is not step k + 1,
    # and step k does not count as completed
    k = sw.run_experiment(base_config(amplitude=1e-3), t_end=0.05).n_steps
    dts = _failing_stage(monkeypatch, None, None)
    hydro, calls = solver._hydro_step, []

    def closing_fails(*args):
        calls.append(None)
        if len(calls) == k + 1:    # after the stages of steps 1 .. k
            raise PositivityError("at cell 5")
        return hydro(*args)

    monkeypatch.setattr(solver, "_hydro_step", closing_fails)
    with pytest.raises(PositivityError) as info:
        sw.run_experiment(base_config(amplitude=1e-3), t_end=0.05, out_dir=tmp_path)
    assert len(dts) == k >= 2
    t = sum(dts[:-1], 0.0)
    assert re.fullmatch(rf"step {k} from t = {re.escape(repr(t))}: at cell 5", str(info.value))
    manifest = (tmp_path / "manifest.txt").read_text()
    assert f"n_steps = {k - 1}\n" in manifest
    assert f"t_final = {t!r}\n" in manifest


def test_run_experiment_stops_when_dt_collapses(monkeypatch):
    dts = _failing_stage(monkeypatch, 2, lambda U, dt_max: (U, 1e-20))
    with pytest.raises(StepBudgetError) as info:
        sw.run_experiment(base_config(amplitude=1e-3), t_end=0.5)
    message = rf"step 2 from t = {re.escape(repr(0.0 + dts[0]))} took dt = 1e-20, below "
    assert re.match(message, str(info.value))


@pytest.mark.parametrize("limiter", LIMITERS)
def test_a_checkpoint_one_cfl_step_away_holds_step_bitwise(limiter):
    # a chain of one step is H(dt/2) D(dt) H(dt/2), which is what step takes
    cfg = base_config(amplitude=1e-3)
    one = sw.step(sw.init_wavetrain(cfg), cfl=0.45, limiter=limiter)
    res = sw.run_experiment(cfg, t_end=3.0 * one.t, output_times=[one.t], limiter=limiter)
    t, snap = res.checkpoints[0]
    assert t == one.t
    assert np.array_equal(_bits(snap.h), _bits(one.h))
    assert np.array_equal(_bits(snap.q), _bits(one.q))


def _chain(h, q, dx, t_end):
    run = solver._Run(dx, G, 0.45, "mc", dt_floor=0.0)
    h, q = run.advance(np.array((h, q)), t_end)
    return run, h, q


@pytest.mark.parametrize("state, shift", [(_random_state, 37), (_tiled_train, 1237)],
                         ids=["random", "tiled train"])
def test_chained_steps_commute_with_rotation_bitwise(state, shift):
    h, q, dx = state()
    run, h1, q1 = _chain(h, q, dx, 0.05)
    rotated, h2, q2 = _chain(np.roll(h, shift), np.roll(q, shift), dx, 0.05)
    assert run.n_steps == rotated.n_steps >= 5
    assert (run.t, run.h_min, run.h_max) == (rotated.t, rotated.h_min, rotated.h_max)
    assert np.array_equal(_bits(np.roll(h1, shift)), _bits(h2))
    assert np.array_equal(_bits(np.roll(q1, shift)), _bits(q2))


def test_the_driver_leaves_its_input_untouched():
    # a chain's first stage reads a view of the caller's array (of its
    # repeating block, on the tiled train); no stage may write through it
    h, q, dx = _tiled_train()
    U = np.array((h, q))
    before = U.copy()
    assert _block_length(U) == 400 < U.shape[1]
    run = solver._Run(dx, G, 0.45, "mc", dt_floor=0.0)
    out = run.advance(U, math.inf, max_steps=4)
    assert run.n_steps == 4 and out.shape == U.shape
    assert np.array_equal(_bits(U), _bits(before))
    fields = [
        sw.SGNField(dx=dx, g=G, h=np.full(4000, 2.0), q=np.zeros(4000)),
        sw.SGNField(dx=dx, g=G, h=h, q=q),
        _random_field(3.25),
    ]
    for field in fields:
        h0, q0 = field.h.copy(), field.q.copy()
        stepped = sw.step(field, cfl=0.45)
        assert stepped.t > field.t
        assert np.array_equal(_bits(field.h), _bits(h0))
        assert np.array_equal(_bits(field.q), _bits(q0))


def test_run_experiment_allows_a_short_step_onto_a_checkpoint():
    # the step clipped onto t = 1 + 1.5e-12 is shorter than 1e-12 * t_end
    # but was asked for; only a CFL step that short counts as a collapse
    times = [1.0, 1.0 + 1.5e-12, 2.0]
    res = sw.run_experiment(base_config(amplitude=1e-3), t_end=2.0, output_times=times)
    assert [t for t, _ in res.checkpoints] == times


@pytest.mark.parametrize("gap", [5e-13, np.spacing(1.0)], ids=["5e-13", "one ulp"])
def test_a_checkpoint_however_close_to_the_last_takes_its_own_stage(gap):
    # the chain to 1 + gap starts less than 1e-12 short of it and used to take
    # no stage, recording the state at t = 1 under the time 1 again
    times = [1.0, 1.0 + gap, 2.0]
    res = sw.run_experiment(base_config(amplitude=1e-3, cells_per_wavelength=32),
                            t_end=2.0, output_times=times)
    assert [t for t, _ in res.checkpoints] == times
    assert res.n_steps == 96    # 95 without the stage onto 1 + gap


# checkpoints (a, b) inside the first CFL step of one 32-cell wave whose b was
# recorded an ulp off: the step clipped onto b gave t + (b - t), and that sum
# rounds off b when t < b/2
DRIFT_PAIRS = [
    (0.0014770729511274392, 0.015604305626689794),
    (0.005384596456808122, 0.014693263889661896),
    (0.005466855125324715, 0.014483631772913152),
]


def _assert_recorded_at(res, times):
    assert [t for t, _ in res.checkpoints] == times
    assert [snap.t for _, snap in res.checkpoints] == times
    assert [t for t, *_ in res.diag_series[1:]] == times


@pytest.mark.parametrize("a, b", DRIFT_PAIRS)
def test_a_step_clipped_onto_a_checkpoint_lands_on_it(a, b, tmp_path):
    res = sw.run_experiment(base_config(amplitude=1e-3, cells_per_wavelength=32),
                            t_end=b, output_times=[a, b], out_dir=tmp_path)
    _assert_recorded_at(res, [a, b])    # each snapshot's t too
    rows = dict(row.split(" = ", 1) for row in (tmp_path / "manifest.txt").read_text().splitlines())
    assert rows["t_final"] == repr(b)
    last = (tmp_path / "diagnostics.csv").read_text().splitlines()[-1]
    assert last.split(",")[0] == repr(b)


@given(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0, exclude_min=True))
@settings(max_examples=100, deadline=None)
def test_checkpoints_within_one_cfl_step_land_on_their_own_instants(u, v):
    cfg = base_config(amplitude=1e-3, cells_per_wavelength=32)
    dt = sw.step(sw.init_wavetrain(cfg), cfl=0.45).t
    a, b = sorted((u * dt, v * dt))
    assume(0.0 < a < b)
    _assert_recorded_at(sw.run_experiment(cfg, t_end=b, output_times=[a, b]), [a, b])


def test_run_experiment_checks_its_arguments_in_simulates_key_order():
    # t_end comes before cfl in simulate's key table, so it is named first
    with pytest.raises(ValueError, match="^t_end must be positive and finite, got nan$"):
        sw.run_experiment(base_config(), float("nan"), cfl=0.0)


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
