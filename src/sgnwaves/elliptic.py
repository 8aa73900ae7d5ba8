"""Complete elliptic integrals and their closed-form derivatives.

Evaluation goes through the Carlson symmetric forms R_F, R_G, R_J
(scipy.special), which converge for every modulus in [0, 1) at full
double precision (R_G also at k = 1, where E(1) = 1):

    K(k)      = R_F(0, 1-k^2, 1)
    E(k)      = 2 R_G(0, 1-k^2, 1)
    Pi(n, k)  = R_F(0, 1-k^2, 1) + (n/3) R_J(0, 1-k^2, 1, 1-n)

K, E and Pi work elementwise: a float returns a float, an array an array
of the same shape, bit for bit the values of the scalar calls.

Convention warning: everything here is parameterized by the elliptic
MODULUS k, not by the parameter m = k^2 that Abramowitz & Stegun (and
Mathematica, and scipy.special.ellipk) use.  Keep the two straight when
cross-checking values.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np
from scipy.special import elliprf, elliprg, elliprj

from .errors import DomainError, SingularConfigurationError

__all__ = ["ellip_K", "ellip_E", "ellip_Pi", "ellip_derivatives"]

# Relative half-width of the band around n = k^2 that ellip_derivatives rejects.
SINGULAR_TOL = 1e-12


def _require(ok, rule: str, name: str, value) -> None:
    """Raise DomainError unless `ok` holds for every element."""
    if not _all(ok):
        raise DomainError(f"{rule}, got {name}={np.extract(np.logical_not(ok), value)[0]}")


def _all(ok) -> bool:
    """Whether `ok` holds for every element of an array, or `ok` itself for a bool.

    The fork keeps the scalar path fast: np.all of a bool takes about 2.8 us
    against 0.07 us, and perfbench's single_state setup, which builds 2000
    float states, ran 17 % slower through np.all (shared 2-vCPU x86_64 host).
    """
    return ok.all() if isinstance(ok, np.ndarray) else ok


# the real scalars an object array may hold; each converts without an object array of its own
_REAL = (int, float, np.bool_, np.integer, np.floating)


def _float(x, name: str):
    """The package's one numeric rule: x as float64 numbers, whatever real type it came in.

    A real scalar (a Python int, bool or float, or a NumPy scalar of any
    width) becomes a Python float, and a Python int too large for a float
    becomes +-inf.  A bool, int, uint or float array (or a list) becomes a
    float64 array; one that already is float64 is returned as itself.  A
    list that holds a Python int past the int64 and uint64 range becomes
    an object array in numpy; when all its entries are real numbers they
    go through the scalar rule one by one, so a number gets the same value
    in a list as alone.  Anything else, an object array included, is a
    ValueError naming `name`.  Under NumPy 2's scalar promotion (NEP 50) a
    float32 scalar would keep Python-float arithmetic in float32, and an
    int64 array would wrap, so each entry converts its numbers here, once.
    """
    if type(x) is float:    # single_state set-up: 9.8 % slower without it (2-vCPU x86_64, 10/10 pairs)
        return x
    if isinstance(x, int):    # any size; from 2**1024 - 2**970 on, float(x) would round past the range
        return float(x) if abs(x) < 2 ** 1024 - 2 ** 970 else (np.inf if x > 0 else -np.inf)
    v = np.asarray(x)
    if v.dtype.kind == "O" and not isinstance(x, np.ndarray) and all(isinstance(e, _REAL) for e in v.flat):
        return np.array([_float(e, name) for e in v.flat]).reshape(v.shape)
    if v.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers, got {name} of dtype {v.dtype}")
    return float(x) if v.ndim == 0 else v.astype(np.float64, copy=False)


def _number(x, name: str) -> float:
    """_float of a parameter that is one number: an array, of any shape, is a ValueError naming it."""
    x = _float(x, name)
    if isinstance(x, np.ndarray):
        raise ValueError(f"{name} must be one number, got {name} of shape {x.shape}")
    return x


def _whole(x, name: str) -> int:
    """A count as a Python int: an integer of any width but a bool, else a ValueError naming it.

    A numpy uint8 or int8 count would wrap in the count's own products, and a
    bool would reach a run's manifest as True.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):    # numpy integers are Integral too
        raise ValueError(f"{name} must be a whole number, got {x!r}")
    return operator.index(x)


# the numpy scalars the package returns: calling the Python type costs about
# 0.1 us, where .item() on a numpy scalar costs about 0.4 us
_PYTHON_TYPE = {np.float64: float, np.bool_: bool, np.int64: int}


def _scalar(out):
    """A 0-d result as the Python float, bool or int of the same value; an array as itself."""
    if out.ndim == 0:
        kind = type(out)
        return _PYTHON_TYPE[kind](out) if kind in _PYTHON_TYPE else out.item()
    return out


def ellip_K(k):
    """Complete elliptic integral of the first kind, elementwise.

    K(k) = integral of dtheta / sqrt(1 - k^2 sin^2 theta) over [0, pi/2].

    Parameters
    ----------
    k : modulus (float or array), 0 <= k < 1.  K diverges logarithmically
        as k -> 1, so k = 1 is rejected.
    """
    k = _float(k, "k")
    _require((0.0 <= k) & (k < 1.0), "ellip_K requires 0 <= k < 1", "k", k)
    return _scalar(elliprf(0.0, 1.0 - k * k, 1.0))


def ellip_E(k):
    """Complete elliptic integral of the second kind, elementwise.

    E(k) = integral of sqrt(1 - k^2 sin^2 theta) dtheta over [0, pi/2].
    Defined on the closed interval: E(1) = 1.
    """
    k = _float(k, "k")
    _require((0.0 <= k) & (k <= 1.0), "ellip_E requires 0 <= k <= 1", "k", k)
    return _scalar(2.0 * elliprg(0.0, 1.0 - k * k, 1.0))


def ellip_Pi(n, k):
    """Complete elliptic integral of the third kind, elementwise.

    Pi(n, k) = integral of dtheta / ((1 - n sin^2 theta) sqrt(1 - k^2 sin^2 theta)).
    At n = 0 the R_J term is multiplied by exactly zero, so Pi(0, k) = K(k)
    bit for bit.

    Parameters
    ----------
    n : characteristic (float or array), 0 <= n < 1
    k : modulus (float or array), 0 <= k < 1
    """
    n, k = _float(n, "n"), _float(k, "k")
    _require((0.0 <= k) & (k < 1.0), "ellip_Pi requires 0 <= k < 1", "k", k)
    _require((0.0 <= n) & (n < 1.0), "ellip_Pi requires 0 <= n < 1", "n", n)
    ksq = k * k
    return _scalar(elliprf(0.0, 1.0 - ksq, 1.0) + (n / 3.0) * elliprj(0.0, 1.0 - ksq, 1.0, 1.0 - n))


def ellip_derivatives(n: float, k: float) -> tuple[float, float, float, float]:
    """Closed-form derivatives (dK/dk, dE/dk, dPi/dn, dPi/dk).

        dK/dk   = E / (k (1-k^2)) - K / k
        dE/dk   = (E - K) / k
        dPi/dn  = -E / (2(1-n)(k^2-n)) - K / (2n(1-n))
                  + (k^2 - n^2) Pi / (2n(k^2-n)(1-n))
        dPi/dk  = k E / ((k^2-n)(1-k^2)) - k Pi / (k^2-n)

    The Pi derivatives divide by (k^2 - n); configurations with
    |n - k^2| <= SINGULAR_TOL * max(n, k^2) are rejected.  Callers that
    need that regime must fall back to numerical differentiation of
    ellip_Pi.

    Parameters
    ----------
    n : characteristic, one number, 0 < n < 1
    k : modulus, one number, 0 < k < 1 (open interval: the formulas divide by k and 1-k^2)
    """
    n, k = _number(n, "n"), _number(k, "k")
    _require(0.0 < k < 1.0, "ellip_derivatives requires 0 < k < 1", "k", k)
    _require(0.0 < n < 1.0, "ellip_derivatives requires 0 < n < 1", "n", n)
    ksq = k * k
    if abs(n - ksq) <= SINGULAR_TOL * max(n, ksq):
        raise SingularConfigurationError(
            f"Pi derivatives are singular at n = k^2 (n={n}, k^2={ksq})"
        )
    K = ellip_K(k)
    E = ellip_E(k)
    Pi = ellip_Pi(n, k)
    dK = E / (k * (1.0 - ksq)) - K / k
    dE = (E - K) / k
    dPi_dn = (
        -E / (2.0 * (1.0 - n) * (ksq - n))
        - K / (2.0 * n * (1.0 - n))
        + (ksq - n * n) * Pi / (2.0 * n * (ksq - n) * (1.0 - n))
    )
    dPi_dk = k * E / ((ksq - n) * (1.0 - ksq)) - k * Pi / (ksq - n)
    return dK, dE, dPi_dn, dPi_dk
