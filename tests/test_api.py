"""The public surface: every name a module lists in __all__ must exist."""

import importlib
import pkgutil

import numpy as np
import pytest

import sgnwaves
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


def _gradient(field, i):
    def call(h1):
        return getattr(sgnwaves.differential_coefficients(sgnwaves.RootTriple(1.0, h1, 2.5)), field)[i]
    return call


# ascending coefficients c0..c4; (x - 1)(x - 2)(x - 3)(x - 4) first
_QUARTICS = np.array([[24.0, -50.0, 35.0, -10.0, 1.0], [0.5, -1.25, -2.0, 0.75, 3.0],
                      [1.0, 0.0, 0.0, 0.0, 2.0]])

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
    "resultant_quartic": (sgnwaves.resultant_quartic, _QUARTICS[1].tolist(), _QUARTICS, float),
    **{f"differential_coefficients.{f}[{i}]": (_gradient(f, i), 1.5, np.array([1.25, 1.5, 2.0]), float)
       for f in ("Phi", "Psi", "Lambda") for i in range(3)},
    **{f"eigen.{f}": (_eigen(f), 1.5, np.array([1.25, 1.5, 2.0]), t)
       for f, t in (("all_real", bool), ("distinct", bool), ("n_positive", int),
                    ("n_negative", int), ("resultant", float))},
}


@pytest.mark.parametrize("name", SCALAR_CASES)
def test_scalar_in_scalar_out_array_in_array_out(name):
    func, x, xs, kind = SCALAR_CASES[name]
    one, batch = func(x), func(xs)
    assert type(one) is kind
    assert isinstance(batch, np.ndarray)
    # resultant_quartic reduces the last axis: its scalar input is one row
    lead = np.shape(xs)[:np.ndim(xs) - np.ndim(x)]
    assert batch.shape == lead
    flat_in = np.asarray(xs).reshape((-1,) + np.shape(x))
    for i, xi in enumerate(flat_in):
        xi = xi.tolist()   # back to Python scalars (or a list of them)
        assert np.asarray(func(xi), dtype=batch.dtype).tobytes() == batch.reshape(-1)[i].tobytes()


# At the float range's edge one state and a batch fail alike: each case's bad
# input gives the same outcome as a float and as the second element of a batch
# whose first element is good, with no numpy RuntimeWarning and no OverflowError.
def _triple(h0):
    return sgnwaves.RootTriple(h0, 2.0 * h0, 3.0 * h0)


def _energy_flux(D):
    one = np.ones_like(D) if isinstance(D, np.ndarray) else 1.0
    state = sgnwaves.ModulationState(D=D, h0=one, h1=1.5 * one, h2=2.0 * one, g=10.0)
    return sgnwaves.conserved_vector(state)[1][3]


RANGE_CASES = {
    # name: (function of one argument, a good input, a bad input, the bad input's outcome)
    "RootTriple": (_triple, 1.0, 1e110, InvalidRootsError),
    "constants_from_roots": (lambda h0: sgnwaves.constants_from_roots(_triple(h0), 1e308, -1),
                             1e-5, 1.0, InvalidRootsError),
    "conserved_vector": (_energy_flux, 2.0, 1e110, np.inf),
}


@pytest.mark.filterwarnings("error")
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
