"""Exact periodic traveling-wave (cnoidal) solutions of the SGN equations.

A wave is parameterized by the three roots h0 < h1 < h2 of the cubic

    F3(h) = 3 - (6 i / m^2) h + 6 eps h^2 - (3 g / m^2) h^3
          = (3 / I3) (h - h0)(h - h1)(h2 - h),

where (h')^2 = F3(h) along the profile.  The depth oscillates between
h1 and h2; h0 stays below the trough but controls the shape.  All
derived constants follow from the roots by Vieta's formulas:

    I1 = h0+h1+h2,  I2 = h0 h1 + h1 h2 + h0 h2,  I3 = h0 h1 h2,
    m = sign_m * sqrt(g I3),  i = g I2 / 2,  eps = I1 / (2 I3).

The profile is h(xi) = h1 + (h2-h1) cn^2(alpha xi; k) with
alpha^2 = (3/4)(h2-h0)/I3 and k^2 = (h2-h1)/(h2-h0); the crest sits at
xi = 0.  Horizontal velocity follows from the mass constraint
h (u - D) = m, so u = m/h + D.

A wave is its modulation state: the four unknowns U = (D, h0, h1, h2) of
the Whitham system are the parameters of the cnoidal wave being
modulated, so one frozen ModulationState serves the profile, the solver
and the modulation system alike.  It validates its roots, g and sign_m
where they enter and derives its WaveConstants once.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elliptic import _all, _float, _number, _require, _scalar, ellip_K, ellip_E, ellip_Pi
from .errors import InvalidRootsError

__all__ = [
    "RootTriple",
    "valid_roots",
    "WaveConstants",
    "ModulationState",
    "constants_from_roots",
    "oscillation_rhs",
    "jacobi_cn",
    "build_wave",
    "state_at_rest",
    "profile",
    "velocity_from_depth",
    "wavelength",
    "averaged_h",
    "averaged_hinv",
]

# Triples closer to the soliton (h1->h0) or zero-amplitude (h1->h2) limit
# than this are rejected: the periodic construction degenerates there.
DEGENERACY_TOL = 1e-10


def _sqrt(x):
    """np.sqrt that keeps a scalar a Python float."""
    return _scalar(np.sqrt(x))


def _text(roots, ok) -> str:
    """The triple (h0, h1, h2) as text; of a batch, the first triple where `ok` fails."""
    h = (roots.h0, roots.h1, roots.h2)
    if isinstance(ok, np.ndarray):
        h = [np.extract(~ok, np.broadcast_to(x, ok.shape))[0] for x in h]
    return "({}, {}, {})".format(*h)


@np.errstate(all="ignore")    # a batch outside the float range fails here, unwarned
def valid_roots(h0, h1, h2):
    """Elementwise 0 < h0 < h1 < h2 (NaN fails) with both gaps >= DEGENERACY_TOL * h2.

    The one float-range rule of a triple: I3 = h0 h1 h2 is a positive normal
    float, and I2, epsilon = I1/(2 I3) and alpha^2 = 0.75 (h2 - h0)/I3 are finite.
    """
    h0, h1, h2 = _float(h0, "h0"), _float(h1, "h1"), _float(h2, "h2")
    I1, I2, I3 = h0 + h1 + h2, h0 * h1 + h1 * h2 + h0 * h2, h0 * h1 * h2
    ok = (
        (0.0 < h0) & (h0 < h1) & (h1 < h2) & (sys.float_info.min <= I3) & (I3 < np.inf)
        & (h1 - h0 >= DEGENERACY_TOL * h2) & (h2 - h1 >= DEGENERACY_TOL * h2)
    )
    if ok is False:    # a float triple stops here, before a zero I3 divides
        return ok
    return ok & (I2 < np.inf) & (I1 / (2.0 * I3) < np.inf) & (0.75 * (h2 - h0) / I3 < np.inf)


@dataclass(frozen=True)
class RootTriple:
    """Roots of the oscillation cubic, 0 < h0 < h1 < h2 (meters); floats, or arrays that broadcast."""

    h0: float
    h1: float
    h2: float

    def __post_init__(self):
        for name in ("h0", "h1", "h2"):
            object.__setattr__(self, name, _float(getattr(self, name), name))
        ok = valid_roots(self.h0, self.h1, self.h2)    # arrays that do not broadcast fail here
        if not _all(ok):
            raise InvalidRootsError(
                f"roots must satisfy 0 < h0 < h1 < h2 with gaps of at least {DEGENERACY_TOL} * h2, "
                "finite I2, epsilon = I1/(2 I3) and alpha^2 = 0.75 (h2 - h0)/I3 (I1, I2, I3 the "
                f"Vieta sums), and a normal float product h0*h1*h2, got {_text(self, ok)}"
            )

    @property
    def modulus(self) -> float:
        """Elliptic modulus k, k^2 = (h2-h1)/(h2-h0)."""
        return _sqrt((self.h2 - self.h1) / (self.h2 - self.h0))

    @property
    def characteristic(self) -> float:
        """Elliptic characteristic n = (h2-h1)/h2."""
        return (self.h2 - self.h1) / self.h2

    @property
    def vieta(self):
        """Elementary symmetric sums (I1, I2, I3) of the roots."""
        h0, h1, h2 = self.h0, self.h1, self.h2
        return h0 + h1 + h2, h0 * h1 + h1 * h2 + h0 * h2, h0 * h1 * h2

    @cached_property
    def integrals(self):
        """(K(k), E(k), Pi(n, k)), evaluated once and shared by the averages and L."""
        k = self.modulus
        return ellip_K(k), ellip_E(k), ellip_Pi(self.characteristic, k)


@dataclass(frozen=True)
class WaveConstants:
    """Constants of the traveling-wave ODE derived from a root triple and g."""

    m: float        # mass flux in the moving frame, h(u-D); signed
    i: float        # momentum constant, g I2 / 2
    epsilon: float  # Bernoulli-type constant, I1 / (2 I3)
    I1: float
    I2: float
    I3: float


@np.errstate(over="ignore")    # a batch's overflowing g I3 or g I2 is checked below, unwarned
def constants_from_roots(roots: RootTriple, g: float, sign_m: int) -> WaveConstants:
    """Derive (m, i, eps, I1, I2, I3) from the roots via Vieta's formulas.

    g is one number and sign_m the integer -1 or +1 (a float or a bool
    would reach a run's manifest as 1.0 or True).  A g for which g I3 or
    g I2 overflows raises InvalidRootsError naming g.
    """
    g = _number(g, "g")
    if not 0.0 < g < math.inf:
        raise InvalidRootsError(f"gravity must be finite and positive, got g={g}")
    if isinstance(sign_m, bool) or not isinstance(sign_m, numbers.Integral) or sign_m not in (-1, 1):
        raise InvalidRootsError(f"sign_m must be -1 or +1, got {sign_m!r}")
    I1, I2, I3 = roots.vieta
    gI3, gI2 = g * I3, g * I2
    ok = (gI3 < math.inf) & (gI2 < math.inf)
    if not _all(ok):
        raise InvalidRootsError(
            f"g*h0*h1*h2 or g*I2 overflows the float range, got g={g} with roots {_text(roots, ok)}"
        )
    return WaveConstants(m=sign_m * _sqrt(gI3), i=gI2 / 2.0, epsilon=I1 / (2.0 * I3), I1=I1, I2=I2, I3=I3)


@dataclass(frozen=True)
class ModulationState:
    """A cnoidal wave: U = (D, h0, h1, h2) with g and sign_m; floats, or a batch's arrays.

    A batch holds same-shape arrays of depths and a float D or a D of
    their shape.  D = None is the rest frame, D = -m/h_bar, where the
    mean velocity U is zero; dataclasses.replace(state, D=None) returns a
    state to it.  `roots` is the validated RootTriple of (h0, h1, h2), so
    every call on the state shares its cached K, E, Pi.  A triple handed in
    is kept when it holds these very h0, h1, h2 objects, as it does from
    state_at_rest and from dataclasses.replace of D, g or sign_m; otherwise
    the state builds and validates its own.  D, g, h0, h1 and h2 are made
    float64 first, so a triple handed in is compared with the converted
    depths.  `constants` is derived here, once, so g and sign_m are checked
    where they enter and no later call derives them again; the rest
    frame's D is read from them, so an at-rest state derives them once too.
    """

    D: float | None
    h0: float
    h1: float
    h2: float
    g: float = 9.81
    sign_m: int = -1
    roots: RootTriple | None = field(default=None, repr=False, compare=False)
    constants: WaveConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.D is not None:    # None is the rest frame, set below
            object.__setattr__(self, "D", _float(self.D, "D"))
            _require(np.isfinite(self.D), "phase speed D must be finite", "D", self.D)
        for name in ("h0", "h1", "h2", "g"):
            object.__setattr__(self, name, _float(getattr(self, name), name))
        r = self.roots
        if not (isinstance(r, RootTriple) and r.h0 is self.h0 and r.h1 is self.h1 and r.h2 is self.h2):
            object.__setattr__(self, "roots", RootTriple(self.h0, self.h1, self.h2))
        shape = np.broadcast(self.h0, self.h1, self.h2).shape
        if np.shape(self.D) not in ((), shape):    # a float D serves a batch too
            raise ValueError(f"D has shape {self.D.shape}, but the roots have shape {shape}")
        object.__setattr__(self, "constants", constants_from_roots(self.roots, self.g, self.sign_m))
        if self.D is None:
            # finite without the check above: |m|/h_bar <= sqrt(g I2 / h1), as
            # h_bar >= h1, g I2 is checked finite, and valid roots keep
            # h1 >= 1e-10 h2 > 1e-113
            object.__setattr__(self, "D", -self.constants.m / averaged_h(self.roots))

    @property
    def U(self) -> float:
        """Depth-averaged mean velocity m/h_bar + D."""
        return self.constants.m / averaged_h(self.roots) + self.D

    @property
    def alpha(self) -> float:
        """Spatial rate (1/m) in cn(alpha xi; k): alpha^2 = 0.75 (h2 - h0)/I3."""
        return _sqrt(0.75 * (self.h2 - self.h0) / self.constants.I3)

    @property
    def k(self) -> float:
        """Elliptic modulus."""
        return self.roots.modulus

    @property
    def L(self) -> float:
        """Wavelength (m)."""
        return wavelength(self.roots)


def state_at_rest(roots: RootTriple, g: float, sign_m: int = -1) -> ModulationState:
    """State with D = -m/h_bar, the Galilean frame where U = 0.

    The state holds `roots` itself, so the K, E, Pi evaluated for h_bar
    serve every later call on the state.
    """
    return ModulationState(None, roots.h0, roots.h1, roots.h2, g, sign_m, roots)


@np.errstate(over="ignore")
def oscillation_rhs(h, constants: WaveConstants):
    """F3(h), the square of dh/dxi along the wave; every h is finite.

    Evaluated in Horner form (3/I3)(((I1 - h) h - I2) h + I3), which equals
    3 - (6i/m^2) h + 6 eps h^2 - (3g/m^2) h^3 identically (m^2 = g I3).
    Each step meets finite coefficients only, so past the float range F3 is
    -inf for a large h and +inf for a large -h, unwarned and never NaN.
    """
    c = constants
    h = _float(h, "h")
    _require(np.isfinite(h), "oscillation_rhs requires a finite h", "h", h)
    return (3.0 / c.I3) * (((c.I1 - h) * h - c.I2) * h + c.I3)


def jacobi_cn(u, k: float):
    """Jacobi elliptic cn(u; k) by the AGM / descending Landen transformation.

    u is elementwise; the modulus k is one number.  A u that is not
    finite, or so large that the phase 2^N a_N u overflows, is a
    DomainError naming it.

    The AGM scale factors a_i, c_i depend only on k; the amplitude phi is
    recovered by the standard backward recurrence
    phi_{i-1} = (phi_i + arcsin((c_i/a_i) sin phi_i)) / 2, and cn = cos(phi_0).

    In floating point c_i stalls around half an ulp of a_i, so the descent
    stops at c_i <= 2.5e-16 a_i (with a hard cap) rather than at zero.
    b_0 = sqrt((1 - k)(1 + k)) avoids the cancellation of 1 - k*k as k -> 1
    (1 - k is exact for k >= 0.5).  Below k of about 1e-8, b_0 rounds to 1
    or to 1 - 2^-53, so a_1 = 1 and c_1 <= 2^-54: the descent stops after
    one level, the arcsin term moves 2u by less than half an ulp, and the
    recurrence returns cos(u) exactly.
    """
    u = _float(u, "u")
    k = _number(k, "k")
    if not 0.0 <= k < 1.0:
        raise InvalidRootsError(f"jacobi_cn requires 0 <= k < 1, got k={k}")
    a, b = 1.0, math.sqrt((1.0 - k) * (1.0 + k))
    ratios = []    # c_i / a_i for i = 1 .. N
    for _ in range(64):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
        if abs(c) <= 2.5e-16 * a:
            break
    phi = (2.0 ** len(ratios)) * a * u
    _require(np.isfinite(phi), "jacobi_cn requires a finite u whose phase 2^N a_N u is finite", "u", u)
    for r in reversed(ratios):
        s = np.clip(r * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(s))
    return _scalar(np.cos(phi))


def wavelength(roots: RootTriple) -> float:
    """Wavelength L = 4 sqrt(I3/3) K(k) / sqrt(h2-h0).

    Equals 2 * integral of dh/sqrt(F3(h)) over [h1, h2].
    """
    I3 = roots.vieta[2]
    return 4.0 * _sqrt(I3 / 3.0) * roots.integrals[0] / _sqrt(roots.h2 - roots.h0)


def averaged_h(roots: RootTriple) -> float:
    """Period average of h: h0 + (h2-h0) E(k)/K(k)."""
    K, E, _ = roots.integrals
    return roots.h0 + (roots.h2 - roots.h0) * E / K


def averaged_hinv(roots: RootTriple) -> float:
    """Period average of 1/h: Pi(n, k) / (h2 K(k))."""
    K, _, Pi = roots.integrals
    return Pi / (roots.h2 * K)


def build_wave(
    roots: RootTriple, g: float, sign_m: int, D: float | None = None
) -> ModulationState:
    """The wave of one root triple; D defaults to -m/h_bar (zero mean velocity)."""
    shape = np.broadcast(roots.h0, roots.h1, roots.h2).shape
    if shape:
        raise InvalidRootsError(f"a wave needs one triple, got roots of shape {shape}")
    return ModulationState(D, roots.h0, roots.h1, roots.h2, g, sign_m, roots)


def profile(wave: ModulationState, xi):
    """Depth h(xi) = h1 + (h2-h1) cn^2(alpha xi; k); crest at xi = 0; xi must be finite."""
    r = wave.roots
    xi = _float(xi, "xi")
    _require(np.isfinite(xi), "profile requires a finite xi", "xi", xi)
    cn = jacobi_cn(xi * wave.alpha, wave.k)
    return _scalar(r.h1 + (r.h2 - r.h1) * np.square(cn))


@np.errstate(over="ignore")    # an array's m/h overflows to inf unwarned, as a float's does
def velocity_from_depth(h, constants: WaveConstants, D: float):
    """u = m/h + D from the mass constraint h(u - D) = m; D, every h > 0 and its u are finite."""
    h, D = _float(h, "h"), _float(D, "D")
    _require((0.0 < h) & (h < np.inf), "velocity_from_depth requires a finite depth h > 0", "h", h)
    _require(np.isfinite(D), "velocity_from_depth requires a finite D", "D", D)
    u = constants.m / h + D
    _require(np.isfinite(u), "velocity_from_depth requires an h whose velocity m/h + D is finite", "h", h)
    return u
