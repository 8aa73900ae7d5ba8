"""The public surface: every name a module lists in __all__ must exist."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

import sgnwaves
from sgnwaves.elliptic import _float
from sgnwaves.errors import InvalidRootsError

MODULES = ["sgnwaves"] + [f"sgnwaves.{m.name}" for m in pkgutil.iter_modules(sgnwaves.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_each_module_all_once():
    # the package keeps no name list of its own: its __all__ is its modules'
    modules = ("elliptic", "waves", "modulation", "solver")
    expected = [n for m in modules for n in importlib.import_module(f"sgnwaves.{m}").__all__]
    assert sgnwaves.__all__ == expected + ["errors"]
    assert len(set(sgnwaves.__all__)) == len(sgnwaves.__all__)


# The scalar contract: a Python scalar in gives a Python scalar out (so a
# repr-ed CLI or manifest value stays a plain float), an array in gives an
# array of its shape, and each element of the array is bit for bit the
# scalar call at that element's input.
_WAVE = sgnwaves.build_wave(sgnwaves.RootTriple(1.0, 1.5, 2.0), 10.0, -1)
_C = _WAVE.constants


def _eigen(field):
    def call(h1):
        h0 = np.ones_like(h1) if isinstance(h1, np.ndarray) else 1.0
        roots = sgnwaves.RootTriple(h0, h1, h1 + 0.5)
        state = sgnwaves.state_at_rest(roots, 10.0)
        return getattr(sgnwaves.characteristic_eigenvalues(sgnwaves.assemble_AB(state)), field)
    return call


def _gradient(which, i):
    def call(h1):
        return sgnwaves.differential_coefficients(sgnwaves.RootTriple(1.0, h1, 2.5))[which][i]
    return call


def _conserved(which, i):
    # a state's densities and fluxes are (4,) arrays, so one entry is a numpy float
    def call(D):
        one = np.ones_like(D) if isinstance(D, np.ndarray) else 1.0
        state = sgnwaves.ModulationState(D=D, h0=one, h1=1.5 * one, h2=2.0 * one, g=10.0)
        return sgnwaves.conserved_vector(state)[which][i]
    return call


# phase speeds where an array's D ** 3 (numpy's SIMD power loop) and a
# float's (libm pow) round apart on an x86_64 host with AVX-512
_SPEEDS = np.array([-7.865, -3.835, 0.5, 1.311, 2.126, 3.835])

SCALAR_CASES = {
    # name: (function of one argument, a scalar input, an array input, type of a scalar result)
    "ellip_K": (sgnwaves.ellip_K, 0.5, np.array([0.1, 0.5, 0.9]), float),
    "ellip_E": (sgnwaves.ellip_E, 0.5, np.array([0.0, 0.5, 1.0]), float),
    "ellip_Pi": (lambda n: sgnwaves.ellip_Pi(n, 0.6), 0.3, np.array([0.0, 0.3, 0.9]), float),
    "jacobi_cn": (lambda u: sgnwaves.jacobi_cn(u, 0.8), 0.7, np.linspace(-3.0, 3.0, 7), float),
    "profile": (lambda xi: sgnwaves.profile(_WAVE, xi), 0.25,
                np.array([[0.0, 0.25], [1.0, 2.0]]), float),
    "velocity_from_depth": (lambda h: sgnwaves.velocity_from_depth(h, _C, _WAVE.D), 1.75,
                            np.array([1.5, 1.75, 2.0]), float),
    "oscillation_rhs": (lambda h: sgnwaves.oscillation_rhs(h, _C), 1.75,
                        np.array([1.5, 1.75, 2.0]), float),
    "wavelength": (lambda h1: sgnwaves.wavelength(sgnwaves.RootTriple(1.0, h1, 2.5)), 1.5,
                   np.array([1.25, 1.5, 2.0]), float),
    **{f"differential_coefficients.{f}[{i}]": (_gradient(which, i), 1.5, np.array([1.25, 1.5, 2.0]), float)
       for which, f in enumerate(("Phi", "Psi", "Lambda")) for i in range(3)},
    **{f"eigen.{f}": (_eigen(f), 1.5, np.array([1.25, 1.5, 2.0]), t)
       for f, t in (("all_real", bool), ("distinct", bool), ("n_positive", int),
                    ("n_negative", int), ("resultant", float))},
    **{f"conserved_vector.{part}[{i}]": (_conserved(which, i), 0.5, _SPEEDS, np.float64)
       for which, part in enumerate(("densities", "fluxes")) for i in range(4)},
}


@pytest.mark.parametrize("name", SCALAR_CASES)
def test_scalar_in_scalar_out_array_in_array_out(name):
    func, x, xs, kind = SCALAR_CASES[name]
    one, batch = func(x), func(xs)
    assert type(one) is kind
    assert isinstance(batch, np.ndarray)
    assert batch.shape == np.shape(xs)
    for i, xi in enumerate(np.ravel(xs)):
        xi = xi.tolist()   # back to a Python scalar
        assert np.asarray(func(xi), dtype=batch.dtype).tobytes() == batch.reshape(-1)[i].tobytes()


# At the float range's edge, and outside the domain of g and sign_m, one state
# and a batch fail alike: each case's bad input gives the same outcome as a
# scalar and as the second element of a batch whose first element is good,
# with no numpy RuntimeWarning and no OverflowError.
def _triple(h0):
    return sgnwaves.RootTriple(h0, 2.0 * h0, 3.0 * h0)


def _energy_flux(D):
    one = np.ones_like(D) if isinstance(D, np.ndarray) else 1.0
    state = sgnwaves.ModulationState(D=D, h0=one, h1=1.5 * one, h2=2.0 * one, g=10.0)
    return sgnwaves.conserved_vector(state)[1][3]


def _state(**kw):
    return sgnwaves.ModulationState(**{"D": 0.5, "h0": 1.0, "h1": 1.5, "h2": 2.0, **kw})


RANGE_CASES = {
    # name: (function of one argument, a good input, a bad input, the bad input's outcome)
    "RootTriple": (_triple, 1.0, 1e110, InvalidRootsError),
    "constants_from_roots": (lambda h0: sgnwaves.constants_from_roots(_triple(h0), 1e308, -1),
                             1e-5, 1.0, InvalidRootsError),
    "conserved_vector": (_energy_flux, 2.0, 1e110, np.inf),
    # a state checks g and sign_m as it is built; g is one number, so a batch
    # of g is a ValueError too, and sign_m is the integer -1 or +1
    "ModulationState.g": (lambda g: _state(g=g), 10.0, -1.0, ValueError),
    "ModulationState.sign_m": (lambda s: _state(sign_m=s), -1, 3, InvalidRootsError),
    "ModulationState.sign_m-float": (lambda s: _state(sign_m=s), -1, 1.0, InvalidRootsError),
    "ModulationState.sign_m-bool": (lambda s: _state(sign_m=s), -1, True, InvalidRootsError),
}


# no numpy warning on the way out of the float range
@pytest.mark.parametrize("name", RANGE_CASES)
def test_one_state_and_a_batch_leave_the_float_range_alike(name):
    func, good, bad, outcome = RANGE_CASES[name]
    batch = np.array([good, bad])
    func(good)
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            func(bad)
        with pytest.raises(outcome):
            func(batch)
    else:
        assert func(bad) == outcome
        assert func(batch).tolist() == [func(good), outcome]


# One numeric rule at every entry: a number of any real type (a Python int,
# a numpy scalar of any width, an int, float32 or bool array) gives the bits,
# result types included, of the same number as float64.  Under numpy 2's
# scalar promotion a float32 scalar would keep float arithmetic in float32,
# and an int64 array would wrap.
_FIELD_H = np.array([1.0, 1.2, 1.1, 1.0])
_TRAIN = dict(roots=sgnwaves.RootTriple(1.0, 1.5, 2.0), n_waves=1, cells_per_wavelength=16)


def _field(h=_FIELD_H, **kw):
    return sgnwaves.SGNField(**{"dx": 0.1, "g": 10.0, "h": h, "q": np.zeros(np.shape(h)), **kw})


def _stepped(field, **kw):
    out = sgnwaves.step(field, **{"cfl": 0.45, **kw})
    return out.t, out.h, out.q


def _ran(t_end=0.01, output_times=None, **kw):
    res = sgnwaves.run_experiment(sgnwaves.WaveTrainConfig(**{**_TRAIN, **kw}), t_end=t_end,
                                  output_times=output_times)
    t, field = res.checkpoints[0]
    return t, field.h, field.q, res.n_steps, res.config.wave.D


def _at_rest(roots):
    state = sgnwaves.state_at_rest(roots, 10.0)
    return state.D, state.h0, state.h1, state.h2


def _eigenvalues(state):
    return (state.D, sgnwaves.characteristic_eigenvalues(sgnwaves.assemble_AB(state)).roots)


def _scan(s_min=1.0, s_max=3.0, tau_min=0.0, tau_max=3.0, g=10.0):
    res = sgnwaves.scan_region(s_min, s_max, tau_min, tau_max, 3, g)
    return res.s_values, res.tau_values, res.g, res.classification.roots


RULE_ENTRIES = {
    # entry.parameter: (function of the parameter, its value, "scalar" and/or "array")
    "RootTriple.h0": (lambda x: _at_rest(sgnwaves.RootTriple(x, 2 * x, 3 * x)), 1e7, "scalar array"),
    "valid_roots.h0": (lambda x: (sgnwaves.valid_roots(x, 2 * x, 3 * x),), 1e7, "scalar array"),
    "constants_from_roots.g": (lambda g: tuple(vars(sgnwaves.constants_from_roots(
        sgnwaves.RootTriple(1.0, 1.5, 2.0), g, -1)).values()), 10.0, "scalar"),
    "build_wave.D": (lambda D: (sgnwaves.build_wave(_TRAIN["roots"], 10.0, -1, D).D,), 2.0, "scalar"),
    "state_at_rest.g": (lambda g: _eigenvalues(sgnwaves.state_at_rest(
        sgnwaves.RootTriple(1.0, 1.5, 1.501), g)), 10.0, "scalar"),
    "ModulationState.D": (lambda D: sgnwaves.conserved_vector(sgnwaves.ModulationState(
        D=D, h0=np.ones(np.shape(D)), h1=np.full(np.shape(D), 1.5), h2=np.full(np.shape(D), 2.0),
        g=10.0)), 1.0, "scalar array"),
    "ModulationState.h1": (lambda h1: sgnwaves.conserved_vector(sgnwaves.ModulationState(
        D=0.5, h0=1.0, h1=h1, h2=3.0, g=10.0)), 2.0, "scalar array"),
    "ModulationState.g": (lambda g: _eigenvalues(sgnwaves.ModulationState(
        D=0.5, h0=1.0, h1=1.5, h2=1.501, g=g)), 10.0, "scalar"),
    "jacobi_cn.u": (lambda u: sgnwaves.jacobi_cn(u, 0.8), 2.0, "scalar array"),
    "jacobi_cn.k": (lambda k: sgnwaves.jacobi_cn(0.7, k), 0.5, "scalar"),
    "oscillation_rhs.h": (lambda h: sgnwaves.oscillation_rhs(h, _C), 2.0, "scalar array"),
    "profile.xi": (lambda xi: sgnwaves.profile(_WAVE, xi), 1.0, "scalar array"),
    "velocity_from_depth.h": (lambda h: sgnwaves.velocity_from_depth(h, _C, _WAVE.D), 2.0,
                              "scalar array"),
    "velocity_from_depth.D": (lambda D: sgnwaves.velocity_from_depth(1.75, _C, D), 3.0, "scalar"),
    "scan_region.s_min": (lambda s: _scan(s_min=s), 2.0, "scalar"),
    "scan_region.s_max": (lambda s: _scan(s_max=s), 3.0, "scalar"),
    "scan_region.tau_min": (lambda tau: _scan(tau_min=tau), 1.0, "scalar"),
    "scan_region.tau_max": (lambda tau: _scan(tau_max=tau), 3.0, "scalar"),
    "scan_region.g": (lambda g: _scan(g=g), 10.0, "scalar"),
    "SGNField.h": (lambda h: _stepped(_field(h=h)), 1.0, "array"),
    "SGNField.dx": (lambda dx: _stepped(_field(dx=dx)), 1.0, "scalar"),
    "SGNField.g": (lambda g: _stepped(_field(g=g)), 10.0, "scalar"),
    "SGNField.t": (lambda t: _stepped(_field(t=t)), 2.0, "scalar"),
    "step.cfl": (lambda cfl: _stepped(_field(), cfl=cfl), 0.25, "scalar"),
    "step.dt_max": (lambda dt: _stepped(_field(), dt_max=dt), 2.0 ** -10, "scalar"),
    "WaveTrainConfig.g": (lambda g: _ran(g=g), 10.0, "scalar"),
    "WaveTrainConfig.amplitude": (lambda a: _ran(amplitude=a), 0.25, "scalar"),
    "run_experiment.t_end": (lambda t: _ran(t_end=t), 2.0 ** -6, "scalar"),
    "run_experiment.output_times": (lambda t: _ran(t_end=2.0 ** -6, output_times=[t]), 2.0 ** -7,
                                    "scalar"),
    "ellip_K.k": (sgnwaves.ellip_K, 0.5, "scalar array"),
    "ellip_E.k": (sgnwaves.ellip_E, 1.0, "scalar array"),
    "ellip_Pi.n": (lambda n: sgnwaves.ellip_Pi(n, 0.6), 0.0, "scalar array"),
    "ellip_Pi.k": (lambda k: sgnwaves.ellip_Pi(0.3, k), 0.5, "scalar array"),
}

RULE_TYPES = {
    # name: (kind, the value in that type)
    "int": ("scalar", int),
    "np.int64": ("scalar", np.int64),
    "np.float32": ("scalar", np.float32),
    "float": ("scalar", float),
    "int64 array": ("array", lambda v: np.full(2, v).astype(np.int64)),
    "float32 array": ("array", lambda v: np.full(2, v, dtype=np.float32)),
    "bool array": ("array", lambda v: np.full(2, v).astype(bool)),
}

# every pair whose typed input holds the value exactly
RULE_CASES = [(entry, kind) for entry, (_, v, takes) in RULE_ENTRIES.items()
              for kind, (shape, to) in RULE_TYPES.items()
              if shape in takes and np.all(to(v) == v)]


def _fingerprint(results):
    if not isinstance(results, tuple):
        results = (results,)
    return [(type(r), np.asarray(r).dtype, np.asarray(r).tobytes()) for r in results]


# no numpy warning while an input becomes float64
@pytest.mark.parametrize("entry, kind", RULE_CASES, ids=[f"{e}-{k}" for e, k in RULE_CASES])
def test_every_entry_computes_a_real_number_as_float64(entry, kind):
    func, v, _ = RULE_ENTRIES[entry]
    shape, to = RULE_TYPES[kind]
    as_float64 = float(v) if shape == "scalar" else np.full(2, v)
    assert _fingerprint(func(to(v))) == _fingerprint(func(as_float64))


@pytest.mark.parametrize("entry", RULE_ENTRIES)
@pytest.mark.parametrize("bad", [1j, "1"], ids=["complex", "str"])
def test_every_entry_names_a_parameter_that_is_not_real(entry, bad):
    func, _, takes = RULE_ENTRIES[entry]
    name = entry.split(".")[1]
    if takes == "array":
        bad = np.full(2, bad)
    with pytest.raises(ValueError, match=f"{name} must hold real numbers, got {name} of dtype"):
        func(bad)


# A parameter that is one number names itself when it is given an array of
# any shape, which would otherwise fail as numpy's "truth value of an array
# is ambiguous", fail late under another name, or be computed with; a 0-d
# array is one number.
ONE_NUMBER = [
    "constants_from_roots.g", "state_at_rest.g", "ModulationState.g", "jacobi_cn.k", "step.cfl",
    "step.dt_max", "run_experiment.t_end", "SGNField.dx", "SGNField.g", "SGNField.t",
    "WaveTrainConfig.g", "WaveTrainConfig.amplitude", "scan_region.s_min", "scan_region.s_max",
    "scan_region.tau_min", "scan_region.tau_max", "scan_region.g",
]


# no numpy warning from an array given as one number
@pytest.mark.parametrize("shape", [(2,), (1,), (1, 1)], ids=str)
@pytest.mark.parametrize("entry", ONE_NUMBER)
def test_a_parameter_that_is_one_number_names_an_array(entry, shape):
    func, v, takes = RULE_ENTRIES[entry]
    name = entry.split(".")[1]
    assert takes == "scalar"
    with pytest.raises(ValueError, match=re.escape(f"{name} must be one number, got {name} of shape {shape}")):
        func(np.full(shape, v))
    assert _fingerprint(func(np.array(v))) == _fingerprint(func(float(v)))


def test_every_entry_has_every_input_type():
    # the exactness filter must leave each type and each entry some cases
    assert {k for _, k in RULE_CASES} == set(RULE_TYPES)
    assert {e for e, _ in RULE_CASES} == set(RULE_ENTRIES)


def test_a_python_int_beyond_the_float_range_is_invalid_roots():
    # int products are exact, so only a float conversion can see the overflow
    with pytest.raises(InvalidRootsError, match=r"got \(1e\+200, 2e\+200, 3e\+200\)"):
        sgnwaves.RootTriple(10 ** 200, 2 * 10 ** 200, 3 * 10 ** 200)
    with pytest.raises(InvalidRootsError, match=r"got \(1.0, 2.0, inf\)"):
        sgnwaves.RootTriple(1, 2, 10 ** 400)


# numpy makes a list that holds a Python int past the int64 and uint64 range
# an object array; its entries take the scalar rule, as the int does alone
@pytest.mark.parametrize("times, as_floats", [
    ([2 ** 64], [2.0 ** 64]),
    ([10 ** 400], [np.inf]),
    ([1.5, 2 ** 64], [1.5, 2.0 ** 64]),
], ids=["2**64", "10**400", "float and 2**64"])
def test_a_python_int_in_a_list_takes_the_scalar_rule(times, as_floats):
    got = _float(times, "output_times")
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(as_floats).tobytes()
    config = sgnwaves.WaveTrainConfig(**_TRAIN)
    with pytest.raises(ValueError, match="is outside") as as_ints:
        sgnwaves.run_experiment(config, 1.0, output_times=times)
    with pytest.raises(ValueError, match="is outside") as as_float:
        sgnwaves.run_experiment(config, 1.0, output_times=as_floats)
    assert str(as_ints.value) == str(as_float.value)


@pytest.mark.parametrize("times", [[1j, 2 ** 64], ["1", 2 ** 64], np.array([2 ** 64], dtype=object)],
                         ids=["complex", "str", "object array"])
def test_a_list_with_a_number_that_is_not_real_names_itself(times):
    config = sgnwaves.WaveTrainConfig(**_TRAIN)
    with pytest.raises(ValueError, match="output_times must hold real numbers, got output_times of dtype object"):
        sgnwaves.run_experiment(config, 1.0, output_times=times)


# a ragged list fails in numpy with an "inhomogeneous shape" that names no parameter
RAGGED = {
    "output_times": lambda: _ran(t_end=1e-3, output_times=[1e-4, [2e-4]]),
    "h0": lambda: sgnwaves.RootTriple([1.0, [1.0]], 1.5, 2.0),
    "h": lambda: sgnwaves.SGNField(dx=0.1, g=10.0, h=[1.0, [1.0, 2.0]], q=[0.0, 0.0]),
    "k": lambda: sgnwaves.ellip_K([0.1, [0.2]]),
}


@pytest.mark.parametrize("name", RAGGED)
def test_a_ragged_list_names_its_parameter(name):
    with pytest.raises(ValueError, match=f"^{name} must hold real numbers in an array of one shape, "
                                         f"got a ragged {name}$"):
        RAGGED[name]()
