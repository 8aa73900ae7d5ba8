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

import numpy as np
from scipy.special import elliprf, elliprg, elliprj

from .errors import DomainError, SingularConfigurationError

__all__ = ["ellip_K", "ellip_E", "ellip_Pi", "ellip_derivatives"]

# Relative half-width of the band around n = k^2 that ellip_derivatives rejects.
SINGULAR_TOL = 1e-12


def _require(ok, rule: str, name: str, value) -> None:
    """Raise DomainError unless `ok` holds for every element (a bool skips np.all, 40x its cost)."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise DomainError(f"{rule}, got {name}={np.extract(np.logical_not(ok), value)[0]}")


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
    _require((0.0 <= k) & (k < 1.0), "ellip_K requires 0 <= k < 1", "k", k)
    return _scalar(elliprf(0.0, 1.0 - k * k, 1.0))


def ellip_E(k):
    """Complete elliptic integral of the second kind, elementwise.

    E(k) = integral of sqrt(1 - k^2 sin^2 theta) dtheta over [0, pi/2].
    Defined on the closed interval: E(1) = 1.
    """
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
    n : characteristic, 0 < n < 1
    k : modulus, 0 < k < 1 (open interval: the formulas divide by k and 1-k^2)
    """
    n = float(n)
    k = float(k)
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
