"""Whitham modulation system of the SGN cnoidal waves.

Four slowly varying parameters U = (D, h0, h1, h2) obey the averaged
conservation laws (wave number, mass, momentum, energy):

    (1/L)_T + (D/L)_X = 0
    (h_bar)_T + (m + h_bar D)_X = 0
    (m + h_bar D)_T + (h_bar D^2 + g I2/2 + 2 m D)_X = 0
    (E)_T + (Q)_X = 0,
        E = h_bar D^2/2 + g I1 h_bar/2 - g I2/2 + g I3 hinv_bar + m D
        Q = h_bar D^3/2 + g I1 h_bar D/2 + g I3 hinv_bar D
            + 3 m D^2/2 + m g I1/2

with m = sign_m sqrt(g I3) per wave.  U is the modulated cnoidal wave
itself: a state is waves.ModulationState, the package's one wave type,
which build_wave and state_at_rest return.  Expanding through the
closed-form differentials of h_bar, hinv_bar and L gives the quasilinear
form A U_T + B U_X = 0, whose characteristic roots det(B - lam A) = 0
decide hyperbolicity, i.e. modulational stability of the wave train.

The quasilinear matrices are stored exactly as the expanded equations
give them; the first row is the L-form (L_T - L D_X + D L_X = 0), which
differs from the conservative 1/L-form by the row factor -1/L^2.  Row
scaling leaves the eigenvalues untouched; the Jacobian tests account
for the factor explicitly.

One code path serves one state and many: fed a state of floats it
returns (4, 4) matrices and Python scalars, fed (N,) arrays it returns
(N, 4, 4) stacks and per-state arrays, bit for bit the same values.
That holds for any real input type, because every number that enters
the package first becomes float64 by one rule (elliptic._float; README,
"one numeric rule").  scan_region is that batched case, run in chunks
of SCAN_CHUNK points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .csvio import format_column, write_csv
from .elliptic import _number, _scalar, _whole
from .errors import DegeneratePencilError
from .waves import (
    ModulationState,
    RootTriple,
    _sqrt,
    averaged_h,
    averaged_hinv,
    state_at_rest,
    valid_roots,
    wavelength,
)

__all__ = [
    "DifferentialCoefficients",
    "QuasilinearSystem",
    "EigenClassification",
    "ScanResult",
    "conserved_vector",
    "differential_coefficients",
    "assemble_AB",
    "characteristic_eigenvalues",
    "scan_region",
    "write_scan_csv",
]

REAL_TOL = 1e-9       # |Im| <= REAL_TOL * max(1, |Re|) counts as real
DISTINCT_TOL = 1e-8   # min root gap must exceed DISTINCT_TOL * max|root|
PENCIL_TOL = 1e-12    # |c4| <= PENCIL_TOL * max|c| means a degenerate pencil
SCAN_MARGIN = 1e-3    # scan grids stay this far inside the degenerate s = 1, tau = 0 edges
SCAN_CHUNK = 1024     # scan points per kernel call; bounds the (chunk, 16, 4, 4) stack

# Why a scan point was not classified; ScanResult.reason indexes this tuple.
SCAN_REASONS = (None, "invalid_roots", "degenerate_pencil")
_INVALID_ROOTS, _DEGENERATE_PENCIL = 1, 2


@dataclass(frozen=True)
class DifferentialCoefficients:
    """Partials of (h_bar, hinv_bar, L) with respect to (h0, h1, h2)."""

    Phi: tuple[float, float, float]
    Psi: tuple[float, float, float]
    Lambda: tuple[float, float, float]


@dataclass(frozen=True)
class QuasilinearSystem:
    """The pencil (A, B) of A U_T + B U_X = 0; its polynomial is derived from A and B."""

    A: np.ndarray  # (..., 4, 4); a batch of states adds its shape in front
    B: np.ndarray  # (..., 4, 4)

    @cached_property
    def charpoly(self) -> np.ndarray:
        """(..., 5): c0..c4 of det(B - lam A), ascending powers; computed on first read."""
        return _pencil_charpoly(self.A, self.B)


@dataclass(frozen=True)
class EigenClassification:
    """Characteristic roots and their classification; arrays (masks) for a batch."""

    roots: np.ndarray  # (..., 4) complex, sorted by real part
    all_real: bool
    distinct: bool
    n_positive: int
    n_negative: int
    resultant: float


@np.errstate(over="ignore", invalid="ignore")    # a batch overflows to inf unwarned, as a float does
def conserved_vector(state: ModulationState):
    """Densities and fluxes of the four averaged conservation laws.

    Order: wave conservation (1/L), mass, momentum, energy.
    """
    r, c = state.roots, state.constants
    D = state.D
    g = state.g
    hb = averaged_h(r)
    hi = averaged_hinv(r)
    L = wavelength(r)
    m = c.m
    densities = np.array([
        1.0 / L,
        hb,
        m + hb * D,
        0.5 * hb * D * D + 0.5 * g * c.I1 * hb - 0.5 * g * c.I2 + g * c.I3 * hi + m * D,
    ])
    fluxes = np.array([
        D / L,
        m + hb * D,
        hb * D * D + 0.5 * g * c.I2 + 2.0 * m * D,
        0.5 * hb * D * D * D + 0.5 * g * c.I1 * hb * D + g * c.I3 * hi * D
        + 1.5 * m * D * D + 0.5 * m * g * c.I1,
    ])
    return densities, fluxes


_TWO_OVER_SQRT3 = 2.0 / _sqrt(3.0)


def differential_coefficients(roots: RootTriple) -> DifferentialCoefficients:
    """Closed-form gradients Phi^i, Psi^i, Lambda^i of h_bar, hinv_bar, L.

    Built from the ratios E/K and Pi/K; each matches central finite
    differences of the corresponding closed-form average.  Squares are
    products: a scalar and an array `x ** 2` may round apart.
    """
    h0, h1, h2 = roots.h0, roots.h1, roots.h2
    K, E, Pi = roots.integrals
    EK = E / K
    PK = Pi / K
    d20 = h2 - h0
    d21 = h2 - h1
    d10 = h1 - h0
    EK2 = EK * EK
    Phi = (
        0.5 - d20 / (2 * d10) * EK2,
        d20 / (2 * d21) - d20 / d21 * EK + d20 * d20 / (2 * d21 * d10) * EK2,
        -d10 / (2 * d21) + d20 / d21 * EK - d20 / (2 * d21) * EK2,
    )
    Psi = (
        EK / (2 * h0 * d10) - PK / (2 * h0 * h2) - PK * EK / (2 * h2 * d10),
        1 / (2 * h1 * d21) - d20 / (2 * h1 * d21 * d10) * EK
        - PK / (2 * h1 * d21) + d20 / (2 * h2 * d21 * d10) * PK * EK,
        -1 / (2 * h2 * d21) + EK / (2 * h2 * d21)
        + h1 * PK / (2 * h2 * h2 * d21) - PK * EK / (2 * h2 * d21),
    )
    sI3 = _sqrt(roots.vieta[2])
    s20 = _sqrt(d20)
    pre = _TWO_OVER_SQRT3
    Lambda = (
        pre * (sI3 / (d10 * s20) * E + h1 * h2 / (s20 * sI3) * K),
        pre * (-s20 * sI3 / (d21 * d10) * E + h0 * h2 * h2 / (d21 * s20 * sI3) * K),
        pre * (sI3 / (d21 * s20) * E - h0 * h1 * h1 / (d21 * s20 * sI3) * K),
    )
    return DifferentialCoefficients(Phi=Phi, Psi=Psi, Lambda=Lambda)


# Column subsets for det(B - lam A): picking S columns from -A and the rest
# from B contributes det * lam^|S|.  A running sum down column d of _TABLE
# adds +0.0 (index 16), then the subsets of size d in itertools.product order.
_SUBSETS = list(itertools.product((False, True), repeat=4))
_TABLE = np.array(list(itertools.zip_longest(
    *([16] + [k for k, s in enumerate(_SUBSETS) if sum(s) == d] for d in range(5)), fillvalue=16)))
# The stack as one gather: a state's 32 entries are B's 16, then -A's 16,
# and entry [k, i, j] of _GATHER is where subset matrix k finds its (i, j).
_GATHER = 16 * np.array(_SUBSETS)[:, None, :] + 4 * np.arange(4)[:, None] + np.arange(4)


@np.errstate(over="ignore", invalid="ignore")    # an overflow is a non-finite coefficient
def _pencil_charpoly(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    entries = np.concatenate((B, -A), axis=-2).reshape(A.shape[:-2] + (32,))
    dets = np.linalg.det(entries.take(_GATHER, axis=-1))
    grid = np.concatenate((dets, np.zeros(dets.shape[:-1] + (1,))), axis=-1).take(_TABLE, axis=-1)
    return np.add.accumulate(grid, axis=-2)[..., -1, :]


@np.errstate(over="ignore", invalid="ignore")
def assemble_AB(state: ModulationState) -> QuasilinearSystem:
    """Fill A and B of A U_T + B U_X = 0, U = (D, h0, h1, h2).

    Row order: wavelength, mass, momentum, energy.  Rows mass..energy are
    the exact Jacobians of the conservative densities/fluxes; the
    wavelength row carries the extra -L^2 factor (see module docstring).
    A batched state runs the same arithmetic, entry for entry.  An entry
    that overflows is left inf or NaN, without a warning; the charpoly
    carries it to a non-finite coefficient, a degenerate pencil.
    """
    r, c = state.roots, state.constants
    D, g, m = state.D, state.g, c.m
    hs = (r.h0, r.h1, r.h2)
    hb = averaged_h(r)
    hi = averaged_hinv(r)
    L = wavelength(r)
    dc = differential_coefficients(r)
    # for root index i, the product and sum of the other two roots
    prod_other = (hs[1] * hs[2], hs[0] * hs[2], hs[0] * hs[1])
    sum_other = (hs[1] + hs[2], hs[0] + hs[2], hs[0] + hs[1])

    A, B = np.zeros((2,) + np.shape(hb) + (4, 4))
    A[..., 2, 0] = hb
    A[..., 3, 0] = hb * D + m
    B[..., 0, 0] = -L
    B[..., 2, 0] = 2.0 * hb * D + 2.0 * m
    B[..., 3, 0] = 1.5 * hb * D * D + 0.5 * g * c.I1 * hb + m * m * hi + 3.0 * m * D
    columns = zip(hs, dc.Phi, dc.Psi, dc.Lambda, prod_other, sum_other)
    for j, (h, Phi, Psi, Lam, po, so) in enumerate(columns, start=1):
        A[..., 0, j] = Lam
        A[..., 1, j] = Phi
        A[..., 2, j] = D * Phi + m / (2.0 * h)
        A[..., 3, j] = (
            0.5 * (D * D + g * c.I1) * Phi + m * m * Psi
            + 0.5 * g * (hb - so) + g * po * hi
            + m / (2.0 * h) * D
        )
        B[..., 0, j] = D * Lam
        B[..., 2, j] = D * D * Phi + 0.5 * g * so + m / h * D
        B[..., 3, j] = (
            0.5 * (D * D + g * c.I1) * D * Phi + m * m * D * Psi
            + 0.5 * g * hb * D + g * po * hi * D
            + 0.75 * m / h * D * D + 0.25 * g * m * c.I1 / h + 0.5 * g * m
        )
    B[..., 1, :] = A[..., 2, :]  # the mass flux is the momentum density
    return QuasilinearSystem(A=A, B=B)


# index pairs (i < j) of the four roots, for the distinctness gaps
_PAIRS = np.triu_indices(4, 1)
_SUBDIAGONAL = np.eye(4, k=-1)


def _degenerate_pencil(charpoly: np.ndarray) -> np.ndarray:
    """Mask of pencils whose c4 is negligible or whose coefficients are not finite."""
    c = np.abs(charpoly)
    return ~(c[..., 4] > PENCIL_TOL * c.max(axis=-1))


def characteristic_eigenvalues(sys: QuasilinearSystem) -> EigenClassification:
    """Roots of det(B - lam A) = 0 with realness/distinctness classification.

    Roots are the eigenvalues of the quartic's companion matrix, laid out
    as numpy.roots lays it out; this is robust where closed-form quartic
    solvers lose digits.  The resultant Res(p, p'), a sign check, is
    prod_{i<j} (lam_i - lam_j)^2 over these roots (p monic, n = 4).  Raises
    DegeneratePencilError where _degenerate_pencil holds, saying whether the
    pencil overflowed or its c4 is negligible; scan_region masks those states
    out first.
    """
    c = sys.charpoly
    if _degenerate_pencil(c).any():
        if not np.isfinite(c).all():
            raise DegeneratePencilError(
                f"the pencil overflows the float range: charpoly coefficients {c!r}")
        raise DegeneratePencilError(f"leading charpoly coefficient is negligible in {c!r}")
    return _classify(c)


def _classify(c: np.ndarray) -> EigenClassification:
    """Roots and classification of the quartics c (..., 5), none of them degenerate."""
    comp = np.empty(c.shape[:-1] + (4, 4))
    comp[...] = _SUBDIAGONAL
    comp[..., 0, :] = -c[..., 3::-1] / c[..., 4:]
    lam = np.asarray(np.linalg.eigvals(comp), dtype=complex)
    lam.sort(axis=-1)
    re, im = lam.real, lam.imag
    diff = lam[..., _PAIRS[0]] - lam[..., _PAIRS[1]]
    n_positive = _scalar((re > 0.0).sum(axis=-1))
    return EigenClassification(
        roots=lam,
        all_real=_scalar((np.abs(im) <= REAL_TOL * np.maximum(1.0, np.abs(re))).all(axis=-1)),
        distinct=_scalar(np.abs(diff).min(axis=-1) > DISTINCT_TOL * np.abs(lam).max(axis=-1)),
        n_positive=n_positive,
        n_negative=4 - n_positive,
        resultant=_scalar((diff * diff).prod(axis=-1).real),
    )


def _grid_points(s_values: np.ndarray, tau_values: np.ndarray):
    """(s, tau) of every grid point, row-major: index i*len(tau_values)+j is (s_i, tau_j)."""
    return np.repeat(s_values, len(tau_values)), np.tile(tau_values, len(s_values))


@dataclass(frozen=True)
class ScanResult:
    """Hyperbolicity classification over the (s, tau) plane, h0 = 1.

    `classification` and `reason` hold one entry per grid point, row-major
    (s outer, tau inner; see _grid_points).  Where reason > 0 (an index
    into SCAN_REASONS) the point was not classified: NaN roots and
    resultant, counts -1, flags false.
    """

    s_values: np.ndarray
    tau_values: np.ndarray
    g: float
    sign_m: int
    classification: EigenClassification
    reason: np.ndarray

    @property
    def errors(self) -> list:
        """(s, tau, reason) of every point that was not classified."""
        s, tau = _grid_points(self.s_values, self.tau_values)
        return [(s[i], tau[i], SCAN_REASONS[self.reason[i]]) for i in np.flatnonzero(self.reason)]

    @property
    def all_hyperbolic(self) -> bool:
        return bool(np.all(self.classification.all_real & self.classification.distinct))

    @property
    def resultant_sign_constant(self) -> bool:
        return np.unique(np.sign(self.classification.resultant[self.reason == 0])).size == 1

    def sign_pattern_grid(self) -> np.ndarray:
        """n_positive per point, shape (len(s_values), len(tau_values)); -1 on error."""
        return self.classification.n_positive.reshape(len(self.s_values), len(self.tau_values))


@np.errstate(over="ignore", invalid="ignore")    # an overflowing point is invalid or degenerate
def scan_region(
    s_min: float,
    s_max: float,
    tau_min: float,
    tau_max: float,
    grid_n: int,
    g: float,
    sign_m: int = -1,
) -> ScanResult:
    """Classify hyperbolicity on a grid over the open window (s, tau).

    Each grid point builds the wave with roots (1, s, s+tau) in the U = 0
    frame (D = -m/h_bar).  The s = 1 and tau = 0 edges are degenerate
    waves, so the grid is clamped away from them by SCAN_MARGIN, and a
    window that lies wholly inside the margin is rejected.  Chunks of
    SCAN_CHUNK points go through state_at_rest and assemble_AB, and each
    chunk's one polynomial masks degenerate pencils (a reason code, as are
    invalid roots) and classifies the rest; any exception propagates.
    """
    grid_n = _whole(grid_n, "grid_n")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    s_min, s_max, tau_min, tau_max, g = (_number(x, name) for x, name in zip(
        (s_min, s_max, tau_min, tau_max, g), ("s_min", "s_max", "tau_min", "tau_max", "g")))
    window = (s_min, s_max, tau_min, tau_max)
    s_lo, tau_lo = max(s_min, 1.0 + SCAN_MARGIN), max(tau_min, SCAN_MARGIN)
    if not (np.isfinite(window).all() and s_lo < s_max and tau_lo < tau_max):
        raise ValueError(
            f"scan window must be finite and non-empty after its lower bounds are clamped "
            f"to s >= 1 + SCAN_MARGIN and tau >= SCAN_MARGIN = {SCAN_MARGIN}, got {window}"
        )
    s_values = np.linspace(s_lo, s_max, grid_n)
    tau_values = np.linspace(tau_lo, tau_max, grid_n)
    s, tau = _grid_points(s_values, tau_values)
    h0, h2, n = np.ones_like(s), s + tau, s.size
    out = EigenClassification(np.full((n, 4), complex(np.nan, np.nan)), np.zeros(n, dtype=bool),
                              np.zeros(n, dtype=bool), np.full(n, -1), np.full(n, -1),
                              np.full(n, np.nan))
    reason = np.where(valid_roots(h0, s, h2), 0, _INVALID_ROOTS)
    todo = np.flatnonzero(reason == 0)
    for start in range(0, todo.size, SCAN_CHUNK):
        idx = todo[start:start + SCAN_CHUNK]
        c = assemble_AB(state_at_rest(RootTriple(h0[idx], s[idx], h2[idx]), g, sign_m)).charpoly
        bad = _degenerate_pencil(c)
        reason[idx[bad]] = _DEGENERATE_PENCIL
        cls = _classify(c[~bad])
        for f in fields(cls):
            getattr(out, f.name)[idx[~bad]] = getattr(cls, f.name)
    return ScanResult(
        s_values=s_values, tau_values=tau_values, g=g, sign_m=sign_m,
        classification=out, reason=reason,
    )


def write_scan_csv(result: ScanResult, path) -> None:
    """Serialize a scan as CSV; floats use repr so parsing round-trips."""
    c = result.classification
    max_imag = np.abs(c.roots.imag).max(axis=-1)
    columns = (*_grid_points(result.s_values, result.tau_values), *c.roots.real.T, max_imag,
               c.resultant, c.n_positive, c.n_negative, c.all_real, c.distinct)
    write_csv(
        path,
        "s,tau,lambda1,lambda2,lambda3,lambda4,"
        "max_imag,resultant,n_positive,n_negative,all_real,distinct",
        map(format_column, columns),
    )
