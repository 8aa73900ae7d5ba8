"""1D time-domain solver for the SGN equations on a periodic interval.

Unknowns are the cell values of depth h and momentum q = h u.  The system

    h_t + (h u)_x = 0
    (h u)_t + (h u^2 + p)_x = 0,   p = g h^2/2 + (1/3) h^2 (D^2 h / D t^2)

is advanced by Strang splitting between a hydrostatic shallow-water step
H and a dispersive momentum correction D.  `run_experiment` advances each
stretch between two checkpoints as one chain

    H(dt0/2) D(dt0) H((dt0 + dt1)/2) D(dt1) ... D(dtk) H(dtk/2),

the "first same as last" form of Strang splitting (Strang 1968): the
closing half-step of one step and the opening half-step of the next are
one hydrostatic stage, so a run pays for one H per step, not two.  Each
dt is the CFL step of the state after the previous D.  The chain takes
stages while t < the next checkpoint, and the step clipped onto it lands
on it exactly; a half-step closes the chain there.  `step` is the same
driver, `_Run.advance`, cut after one stage: H(dt/2) D(dt) H(dt/2).  A
run stacks U = (h, q) once and holds it, (2, n), to its last stage.
The run checks the depths of each hydrostatic stage once, as it records
the depth envelope, so D is only built on positive h.  The two substeps are:

  * hydrostatic: MUSCL-Hancock finite volumes with an HLL flux and a
    configurable slope limiter (default monotonized-central, which keeps
    the scheme at second order on smooth data), on U, so that each slope,
    face-state and flux expression runs once for both fields;
  * dispersive: the non-hydrostatic pressure part satisfies the linear
    elliptic problem

        -(p'/h)' + 3 p / h^3 = 2 u_x^2 + g h_xx

    (substitute u_t = -p_total_x / h into the material derivatives of h),
    a symmetric positive-definite cyclic tridiagonal system in the frozen
    h.  Each step builds, anchors and factors it once (L D L^T by LAPACK
    pttrf); both stages of Heun's method for the conservative update
    q_t = -p_x reuse the factors with one pttrs back-substitution each.

Cyclic neighbours and rotations are slice concatenations: ghost cells
at each end of an array, the two pieces of a rotation, or both at once.  Both substeps
conserve mass and total momentum to rounding, and a whole step or chain
commutes bitwise with grid rotations: the Sherman-Morrison break sits at
an anchor cell chosen by cyclic lexicographic comparison, so the choice
itself rotates with the data even when several cells tie exactly in
floating point.  Exact ties are resolved by candidate elimination with
doubling (Booth's lemma): at most ceil(log2 n) rounds of O(n) work each.

An exactly periodic state (still water, or tiled copies of one wave) has
no unique anchor, since every copy ties.  So the step looks for the
shortest block of at least two cells whose copies make up U; the count
of cells tied at the maximum of h rules out most block lengths before
any arrays are compared, and all of them when the maximum is unique.  If
there is one, the step advances that block alone and tiles it: O(block)
work, the same dt, rotation equivariance on these states too, and a
result within rounding of the full-length step.  A chain looks once,
when it starts: each stage keeps a tiled state tiled.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .csvio import format_column, write_csv
from .elliptic import _float, _number, _whole
from .errors import EllipticSolveError, PositivityError, StepBudgetError
from .waves import (
    ModulationState,
    RootTriple,
    build_wave,
    oscillation_rhs,
    profile,
    velocity_from_depth,
)

__all__ = [
    "SGNField",
    "WaveTrainConfig",
    "RunResult",
    "init_wavetrain",
    "step",
    "diagnostics",
    "phase_portrait",
    "portrait_residual",
    "run_experiment",
]

LIMITERS = ("mc", "minmod", "central")


@dataclass(frozen=True)
class SGNField:
    """Periodic cell-centered fields at one instant."""

    dx: float
    g: float
    h: np.ndarray
    q: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        for name, rule in (("dx", _number), ("g", _number), ("h", _float), ("q", _float), ("t", _number)):
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if np.ndim(self.h) != 1 or np.shape(self.h) != np.shape(self.q):
            raise ValueError("h and q must be 1D arrays of equal length")
        if self.h.size < 2:
            raise ValueError(f"a periodic field needs at least 2 cells, got {self.h.size}")
        if not (0.0 < self.dx < np.inf and 0.0 < self.g < np.inf):
            raise ValueError(f"dx and g must be finite and positive, got dx={self.dx}, g={self.g}")
        for name, v in (("h", self.h), ("q", self.q)):
            if not _all_finite(v):
                i = int(np.argmin(np.isfinite(v)))    # first non-finite cell
                raise ValueError(f"h and q must be finite everywhere, got {name}[{i}] = {v[i]}")
        h = self.h
        if not h[h.argmin()] > 0.0:
            i = int(np.argmin(h > 0.0))    # first cell that is not positive
            raise PositivityError(f"initial depth must be positive everywhere, got h[{i}] = {h[i]}")
        if not math.isfinite(self.t):
            raise ValueError(f"t must be a finite real number, got t={self.t!r}")

    @property
    def n_cells(self) -> int:
        return self.h.size

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def u(self) -> np.ndarray:
        return self.q / self.h


@dataclass(frozen=True)
class WaveTrainConfig:
    """A periodic train of N identical cnoidal waves, optionally perturbed.

    `wave` is the train's wave at rest, build_wave(roots, g, sign_m).  The
    config builds it once, as the check of g and sign_m, and keeps it, so
    init_wavetrain, run_experiment and its RunResult read this one object;
    dataclasses.replace builds the new config's wave once.  It is derived,
    not a field: the fields are the inputs a config file sets, and the
    wave stays out of init, repr and comparison, as a state's constants do.
    """

    roots: RootTriple
    g: float = 9.81
    sign_m: int = -1
    n_waves: int = 5
    amplitude: float = 0.0        # relative height perturbation a
    cells_per_wavelength: int = 400

    def __post_init__(self):
        # the sizes are whole numbers: a fractional one would leave a jump at
        # the periodic wrap or a grid longer than the train
        for name, rule in (("g", _number), ("amplitude", _number),
                           ("n_waves", _whole), ("cells_per_wavelength", _whole)):
            object.__setattr__(self, name, rule(getattr(self, name), name))
        if self.n_waves < 1:
            raise ValueError(f"n_waves must be >= 1, got {self.n_waves}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.cells_per_wavelength < 16:
            raise ValueError(
                f"cells_per_wavelength must be >= 16, got {self.cells_per_wavelength}"
            )
        # checks g and sign_m, and that g I3 and g I2 are finite
        object.__setattr__(self, "wave", build_wave(self.roots, self.g, self.sign_m))


def init_wavetrain(config: WaveTrainConfig) -> SGNField:
    """Sample the perturbed wave train on the grid.

    Domain length L1 = n_waves * L.  Height gets the long-wavelength
    modulation h~(x) = h(x) (1 + a cos(2 pi x / L1)); velocity keeps the
    traveling-wave relation u~ = m/h~ + D with D = -m/h_bar.
    """
    wave = config.wave
    L1 = config.n_waves * wave.L
    n = config.n_waves * config.cells_per_wavelength
    dx = L1 / n
    x = (np.arange(n) + 0.5) * dx
    h = profile(wave, x) * (1.0 + config.amplitude * np.cos(2.0 * np.pi * x / L1))
    return SGNField(dx=dx, g=config.g, h=h, q=h * velocity_from_depth(h, wave.constants, wave.D))


# --- periodic neighbours -------------------------------------------------
#
# A step is a fixed sequence of whole-array NumPy passes, most of them
# writing into an array the step already owns.  Each pass is an exact
# rewrite of the plain formula quoted beside it, so the result keeps every
# bit, signed zeros included: the same operations in the same order, except
# that a + or * may swap its two operands, a - b may be a + (-b), and a
# negation may move into the sign of a divisor.  h ** 3 stays a pow.  An
# extreme is read as v[v.argmax()]: the same value as v.max(), and a NaN
# is found too, without the fixed cost of a reduction.

def _cyclic_pad(v: np.ndarray, width: int = 1, shift: int = 0) -> np.ndarray:
    """v rotated left by `shift` cells, with `width` periodic ghost cells at each end.

    Along the last axis, entry j is v[(shift - width + j) mod n]; width = 0
    is a plain rotation.  Needs 0 <= shift and shift + width <= n.
    """
    lo, hi = shift - width, shift + width
    pieces = (v[..., lo:], v[..., :hi]) if lo >= 0 else (v[..., lo:], v, v[..., :hi])
    return np.concatenate(pieces, axis=-1)


def _central_diff(v, dx, shift=0):
    """Cyclic (v[i+1] - v[i-1]) / (2 dx) of v rotated left by `shift` cells."""
    vp = _cyclic_pad(v, 1, shift)
    d = vp[2:] - vp[:-2]
    d /= 2.0 * dx
    return d


# --- hydrostatic substep -------------------------------------------------

def _slopes(vp: np.ndarray, limiter: str) -> np.ndarray:
    """Limited slopes of the cells vp[..., 1:-1] of a padded array.

    One family (van Leer 1977; Sweby 1984): the central slope
    c = 0.5 * (dl + dr), unclipped for "central", else
    sign(c) * min(|c|, theta * min(|dl|, |dr|)) with theta = 1 for "minmod"
    and 2 for "mc", and 0 where dl * dr <= 0.  Where dl * dr > 0, c is not
    zero, so copysign gives the same value as sign(c) * ...; and for minmod
    the clip is the one of dl, dr of smaller magnitude, bit for bit, since
    fl(|dl| + |dr|) / 2 >= min(|dl|, |dr|) and c has the sign of both.
    """
    d = vp[..., 1:] - vp[..., :-1]    # dl is d, dr is d one cell on
    dl, dr = d[..., :-1], d[..., 1:]
    s = dl + dr
    s *= 0.5
    if limiter == "central":
        return s
    ad = np.abs(d)
    lim = np.minimum(ad[..., :-1], ad[..., 1:])
    if limiter == "mc":    # the entry points reject any name but the three
        lim *= 2.0
    m = np.abs(s)
    np.minimum(m, lim, out=m)
    s = np.copysign(m, s, out=m)
    np.putmask(s, dl * dr <= 0.0, 0.0)    # 0 at an extremum or a flat stretch
    return s


def _momentum_flux(W, g) -> None:
    """W[2] = q^2/h + g h^2/2 of W[0] = h and W[1] = q."""
    h, q, m = W
    np.multiply(q, q, out=m)
    m /= h
    t = 0.5 * g * h
    t *= h
    m += t


@np.errstate(over="ignore", invalid="ignore")    # _Run.observe names an overflow
def _hydro_step(U, dx, dt, g, limiter):
    """One MUSCL-Hancock shallow-water update of size dt of the state U = (h, q)."""
    # cells -1 .. n: the ghost cells' faces give the HLL flux at face -1/2
    # without a wrap-around copy
    n = U.shape[1]
    Up = _cyclic_pad(U, 2)
    half = _slopes(Up, limiter)
    half *= 0.5
    # W[k, 0] at the right face of each cell and W[k, 1] at its left face,
    # for k = h, q, q^2/h + g h^2/2: W[1:] is the flux of the state W[:2],
    # and each field's pair of faces is one contiguous block
    W = np.empty((3, 2, n + 2))
    np.add(Up[:, 1:-1], half, out=W[:2, 0])
    np.subtract(Up[:, 1:-1], half, out=W[:2, 1])
    _momentum_flux(W, g)
    # predictor: advance face states by dt/2 with the cell's flux difference
    dU = W[1:, 0] - W[1:, 1]
    dU *= 0.5 * dt / dx
    W[:2] -= dU[:, None]
    if (W[0] <= 0.0).any():
        # the smaller face depth of each cell; a NaN in one face does not hide the other
        h_face = np.fmin(W[0, 0, 1:-1], W[0, 1, 1:-1])
        i = int(np.argmax(h_face <= 0.0))
        raise PositivityError(
            f"reconstructed face depth lost positivity at cell {i} (h = {float(h_face[i])!r})"
        )
    _momentum_flux(W, g)
    # HLL flux at faces -1/2 .. n-1/2, between cell i (its right face, Wl)
    # and cell i+1 (its left face, Wr)
    u = W[1] / W[0]
    c = g * W[0]
    np.sqrt(c, out=c)
    s = u - c
    sl = np.minimum(s[0, :-1], s[1, 1:])    # min(ul - cl, ur - cr)
    np.minimum(sl, 0.0, out=sl)
    u += c
    sr = np.maximum(u[0, :-1], u[1, 1:])    # max(ul + cl, ur + cr)
    np.maximum(sr, 0.0, out=sr)
    Wl, Wr = W[:, 0, :-1], W[:, 1, 1:]
    # F = (sr * F(Ul) - sl * F(Ur) + sl * sr * (Ur - Ul)) / (sr - sl)
    F = sr * Wl[1:]
    t = sl * Wr[1:]
    F -= t
    np.subtract(Wr[:2], Wl[:2], out=t)
    np.multiply(sl * sr, t, out=t)
    F += t
    F /= sr - sl
    # U - dt/dx * (F[i+1/2] - F[i-1/2])
    t = F[:, 1:] - F[:, :-1]
    t *= dt / dx
    return np.subtract(U, t, out=t)


# --- dispersive substep --------------------------------------------------

def _anchor_cell(key: np.ndarray) -> int:
    """Cyclic lexicographic argmax: rotation-equivariant even under exact ties.

    Returns the lowest index i whose rotation rot(i) = key[i], key[i+1], ...
    (mod n) of the finite key is lexicographically largest.  A unique
    maximum is the answer.  Exact ties are resolved by candidate
    elimination with doubling, the lemma behind Booth's least-rotation
    algorithm (Booth 1980, Inf. Process. Lett. 10:240) applied to a whole
    set of candidates at once.

    At width w every candidate starts with the largest w-prefix of any
    rotation.  Lemma: if i < j <= i + w both do, j is not the answer.  With
    d = j - i <= w, both rotations start with the same d entries A, so
    rot(i) = A rot(j) and rot(j) = A rot(j + d), and rot(j) > rot(i) holds
    exactly when rot(j + d) > rot(j).  Either rot(j) is at most rot(i),
    which has the lower index, or rot(j + d) beats it.  So each round
    drops every candidate whose predecessor candidate (in linear order, no
    wrap) lies at most w cells before it; the survivors lie more than w
    apart and hold at most 2n entries in their next w cells.  Keeping the
    survivors whose next w cells are the largest gives the candidates at
    width 2w.  A round touches O(n) values and sorts nothing; once
    w >= n - 1 one candidate is left, so there are at most ceil(log2 n)
    rounds.
    """
    top = int(key.argmax())
    tied = key == key[top]
    # the loop below returns top too; the desk run read 8 % slower without this (6 of 6 pairs)
    if np.count_nonzero(tied) == 1:
        return top
    cand = np.flatnonzero(tied)
    radix = _radix_bytes(key)
    width = 1
    while True:
        later = cand[1:]
        cand = np.concatenate((cand[:1], later[later - cand[:-1] > width]))
        if cand.size == 1:
            return int(cand[0])
        rows = radix.take(cand[:, None] + np.arange(width, 2 * width), mode="wrap")
        rows = rows.view(f"S{rows.itemsize * width}").ravel()    # one byte string per row
        cand = cand[rows == rows[rows.argmax()]]
        width *= 2


def _radix_bytes(key):
    """Big-endian integers whose bytes order like the finite floats in key.

    Byte strings of these integers compare like the float sequences they
    encode, which makes a lexicographic maximum one argmax.  -0.0 and +0.0
    map to the same bytes, as they compare equal.
    """
    b = (key + 0.0).view(np.int64)    # + 0.0 turns -0.0 into +0.0
    # flip every bit of a negative float and the sign bit of any other
    return (b ^ ((b >> 63) | np.int64(-(2 ** 63)))).astype(">i8")


def _all_finite(v) -> bool:
    # argmax and argmin return the index of a NaN if there is one, and an
    # infinity is an extreme
    return math.isfinite(v[v.argmax()]) and math.isfinite(v[v.argmin()])


def _pressure_operator(h, dx, g):
    """Build, anchor and factor the operator -(p'/h)' + 3 p/h^3 of one frozen h.

    With d0 the anchor's diagonal entry, Sherman-Morrison splits the cyclic
    matrix as A = T + w v^T, w = (-d0, 0, ..., 0, corner), v = -w/d0: T drops
    the corner entries, doubles d0 and adds corner^2/d0 to the last diagonal
    entry, and is SPD tridiagonal.  Returns the anchor cell (rotated to index
    0), T's L D L^T factors d, e, v_last = v[-1], zs = T^-1 w / (1 + v.T^-1 w)
    and g h_xx, the h-only part of the right-hand side; g h_xx is rotated
    like T, the rest of the right-hand side is not.

    corner^2/d0 is taken as corner * (corner/d0): every entry scales like
    depth^-3, so under h -> 2^k h, dx -> 2^k dx the split is exact wherever
    the operator is, and corner^2 alone would leave the float range first.
    """
    n = h.size
    inv_dx2 = 1.0 / (dx * dx)
    hp = _cyclic_pad(h)
    # rows: the diagonal, the off-diagonal -w[i] coupling i and i+1 (w[i] is
    # 1/h at face i+1/2, over dx^2) and g h_xx; one rotation moves all three
    M = np.empty((3, n))
    diag, off, g_hxx = M
    np.add(h, hp[2:], out=off)
    np.divide(-2.0, off, out=off)    # -(2.0 / (h + hp[2:])), exactly
    off *= inv_dx2
    np.power(h, 3, out=diag)    # h ** 3
    np.divide(3.0, diag, out=diag)
    diag -= off    # 3 / h**3 + w[i] + w[i-1], each added as a subtracted -w
    diag[1:] -= off[:-1]
    diag[0] -= off[-1]
    if not _all_finite(diag):
        i = int(np.argmin(np.isfinite(diag)))    # first non-finite entry
        raise EllipticSolveError(
            f"dispersive operator has a non-finite diagonal entry at cell {i} "
            f"(h = {float(h[i])!r})"
        )
    np.multiply(2.0, h, out=g_hxx)    # g * ((hp[2:] - 2.0 * h + hp[:-2]) / (dx * dx))
    np.subtract(hp[2:], g_hxx, out=g_hxx)
    g_hxx += hp[:-2]
    g_hxx /= dx * dx
    g_hxx *= g
    # rotate the anchor cell to index 0 so the Sherman-Morrison break point
    # is a deterministic function of the data, not of the array origin
    shift = _anchor_cell(diag)
    d, off, g_hxx = _cyclic_pad(M, 0, shift)
    d0, corner = d[0], off[-1]
    r = corner / d0
    d[0] += d0
    d[-1] += corner * r
    d, e, info = dpttrf(d, off[:-1])
    if info != 0:    # SPD wherever h > 0, and each step checks h > 0 before it gets here
        raise EllipticSolveError(f"dispersive operator is not positive definite (info {info})")
    w = np.zeros(n)
    w[0] = -d0
    w[-1] = corner
    z, _ = dpttrs(d, e, w)
    v_last = -r
    z /= 1.0 + z[0] + v_last * z[-1]
    return shift, d, e, v_last, z, g_hxx


def _nonhydro_pressure(op, h, q, dx):
    """Solve -(p'/h)' + 3 p/h^3 = 2 u_x^2 + g h_xx with a _pressure_operator of h."""
    shift, d, e, v_last, zs, g_hxx = op
    ux = _central_diff(q / h, dx, shift)    # in the operator's rotated frame
    rhs = 2.0 * ux
    rhs *= ux
    rhs += g_hxx    # 2.0 * ux * ux + g_hxx
    y, _ = dpttrs(d, e, rhs)
    p = (y[0] + v_last * y[-1]) * zs
    np.subtract(y, p, out=p)
    p = _cyclic_pad(p, 0, p.size - shift)
    if not _all_finite(p):
        i = int(np.argmin(np.isfinite(p)))    # first non-finite cell
        raise EllipticSolveError(f"dispersive pressure solve returned a non-finite value at cell {i}")
    return p


def _dispersive_step(h, q, dx, dt, g):
    """Heun update of q_t = -(p_nh)_x at frozen h; conservative central flux."""
    op = _pressure_operator(h, dx, g)

    def accel(qq):
        # -p_x: a difference over -dx is the negated difference, exactly
        return _central_diff(_nonhydro_pressure(op, h, qq, dx), -dx)

    k1 = accel(q)
    q1 = dt * k1
    k2 = accel(np.add(q, q1, out=q1))    # q + dt * k1
    np.add(k1, k2, out=k2)
    np.multiply(0.5 * dt, k2, out=k2)
    return np.add(q, k2, out=k2)    # q + 0.5 * dt * (k1 + k2)


# --- full step and diagnostics -------------------------------------------

def _divisors(k: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return sorted(set(small + [k // d for d in small]))


def _block_length(U) -> int:
    """Shortest block of at least 2 cells whose copies make up U = (h, q), or n.

    Only a block length m that divides n can repeat; then h holds (n/m)
    equal copies of each of its maxima, so the number of cells tied at the
    maximum of h rules out most m before any arrays are compared, and every
    m when the maximum is unique, as it is in almost every state after the
    first step.  A candidate m compares both rows at once, bit for bit,
    signed zeros included: tiling the first block would overwrite the signs
    of the zeros in every other copy.
    """
    h, n = U[0], U.shape[1]
    ties = int(np.count_nonzero(h == h[h.argmax()]))
    bits = U.view(np.uint64)    # -0.0 and +0.0 differ
    for copies in reversed(_divisors(math.gcd(n, ties))[1:]):    # m ascending, m < n
        m = n // copies
        if m >= 2 and np.array_equal(bits[:, m:], bits[:, :-m]):
            return m
    return n


def _cfl_dt(h, q, dx, g, cfl, dt_max):
    """cfl * dx / max(|u| + sqrt(g h)), at most dt_max; a non-finite state is named."""
    speed = q / h
    np.abs(speed, out=speed)
    c = g * h
    speed += np.sqrt(c, out=c)    # np.abs(q / h) + np.sqrt(g * h)
    dt = cfl * dx / float(speed[speed.argmax()])
    if not dt > 0.0:    # NaN or 0: name a non-finite cell before a substep spreads it
        _check_finite_state(h, q)
    return min(dt, dt_max)


def _check_finite_state(h, q) -> None:
    bad = ~(np.isfinite(h) & np.isfinite(q))
    if bad.any():
        i = int(np.argmax(bad))
        raise EllipticSolveError(f"non-finite state at cell {i}: h = {h[i]}, q = {q[i]}")


def _stage(U, run, dt_prev, dt_max):
    """One link of a Strang chain of the _Run `run`: H((dt_prev + dt)/2), run.observe, D(dt).

    dt is the CFL step of U, at most dt_max; dt_prev = 0 opens a chain.
    Returns the state after D(dt), whose h is the one observed, and dt.
    """
    dx, g = run.dx, run.g
    dt = _cfl_dt(U[0], U[1], dx, g, run.cfl, dt_max)
    U = _hydro_step(U, dx, 0.5 * (dt_prev + dt), g, run.limiter)
    run.observe(U)
    U[1] = _dispersive_step(U[0], U[1], dx, dt, g)
    return U, dt


def _check_scheme(cfl, limiter) -> float:
    """Check a step's CFL number, then its limiter; return the CFL number."""
    cfl = _number(cfl, "cfl")
    if not 0.0 < cfl <= 0.9:
        raise ValueError(f"cfl must be in (0, 0.9], got {cfl}")
    if limiter not in LIMITERS:
        raise ValueError(f"unknown limiter {limiter!r}; choose from {LIMITERS}")
    return cfl


def step(field: SGNField, cfl: float, limiter: str = "mc", dt_max: float | None = None) -> SGNField:
    """One step of size cfl * dx / max(|u| + sqrt(g h)), at most dt_max: a chain of one stage
    on U = (field.h, field.q), stacked anew, whose result's rows are the new h and q."""
    cfl = _check_scheme(cfl, limiter)
    dt_max = math.inf if dt_max is None else _number(dt_max, "dt_max")
    if not dt_max > 0.0:    # NaN fails the comparison too
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    run = _Run(field.dx, field.g, cfl, limiter, dt_floor=0.0, t0=field.t)
    U = np.array((field.h, field.q))
    U = run.advance(U, dt_max, max_steps=1)
    return replace(field, h=U[0], q=U[1], t=field.t + run.t)


def _hdot(h, q, dx):
    # material derivative of depth from the mass equation: Dh/Dt = -h u_x
    return -h * _central_diff(q / h, dx)


@np.errstate(over="ignore")    # an energy past the float range is inf, unwarned
def diagnostics(field: SGNField) -> tuple[float, float, float]:
    """Domain integrals of mass h, momentum hu, and energy he,

    with e = u^2/2 + g h/2 + (1/6) (Dh/Dt)^2.
    """
    h, q, dx, g = field.h, field.q, field.dx, field.g
    u = q / h
    hdot = _hdot(h, q, dx)
    e = 0.5 * u * u + 0.5 * g * h + hdot * hdot / 6.0
    return (
        float(np.sum(h) * dx),
        float(np.sum(q) * dx),
        float(np.sum(h * e) * dx),
    )


def phase_portrait(field: SGNField) -> np.ndarray:
    """Per-cell points (h, h * Dh/Dt); exact waves satisfy (h hdot)^2 = m^2 F3(h)."""
    hdot = _hdot(field.h, field.q, field.dx)
    return np.column_stack([field.h, field.h * hdot])


# --- experiment driver ----------------------------------------------------

@dataclass(frozen=True)
class RunResult:
    config: WaveTrainConfig
    checkpoints: list            # (time, SGNField)
    diag_series: list            # (time, mass, momentum, energy)
    h_min: float                 # depth envelope: the initial state, the state
    h_max: float                 # after every stage of every chain, and each checkpoint
    n_steps: int


def portrait_residual(field: SGNField, wave: ModulationState) -> float:
    """max |(h hdot)^2 - m^2 F3(h)| over the cells."""
    pts = phase_portrait(field)
    m = wave.constants.m
    return float(np.max(np.abs(pts[:, 1] ** 2 - m * m * oscillation_rhs(pts[:, 0], wave.constants))))


@dataclass
class _Run:
    """How far a run has got: its time, the steps completed and the depth envelope."""

    dx: float
    g: float
    cfl: float
    limiter: str
    dt_floor: float              # a CFL step shorter than this is a collapse
    t0: float = 0.0              # the run's clock t counts from t0; errors name t0 + t
    t: float = 0.0
    n_steps: int = 0
    h_min: float = math.inf
    h_max: float = -math.inf

    def observe(self, U) -> None:
        """Check that U = (h, q) is finite with every depth positive, then widen the envelope to h."""
        h, q = U
        h_min, h_max = float(h[h.argmin()]), float(h[h.argmax()])
        if not h_min > 0.0:    # a NaN fails too
            i = int(np.argmin(h > 0.0))    # first cell that is not positive
            raise PositivityError(f"depth lost positivity at cell {i} (h = {float(h[i])!r})")
        if not (h_max < math.inf and _all_finite(q)):    # a hydrostatic substep overflowed
            _check_finite_state(h, q)
        self.h_min = min(self.h_min, h_min)
        self.h_max = max(self.h_max, h_max)

    def advance(self, U, t_target, max_steps=math.inf):
        """Step U = (h, q) from self.t < t_target as one Strang chain; return a new U.

        H(dt0/2) D(dt0) H((dt0 + dt1)/2) D(dt1) ... D(dtk) H(dtk/2), where
        dt(n+1) is the CFL step of the state after D(dtn), clipped onto
        t_target.  The chain takes stages while t < t_target and the run
        has taken fewer than max_steps steps; a step clipped onto t_target
        ends exactly on it.  `step` is a run with max_steps = 1.  The chain
        steps a view of the shortest repeating block of U, found once here,
        and tiles it when it closes; no stage writes the U it is given.
        Errors name the step and the time it started from.  The merged
        half-step opens step n + 1; the closing one belongs to the step it
        closes, which then does not count as completed.
        """
        n, m = U.shape[1], _block_length(U)
        U, dt = U[:, :m], 0.0
        try:
            while self.t < t_target:
                under_way = (self.n_steps + 1, self.t)
                rest = t_target - self.t
                U, dt = _stage(U, self, dt, rest)
                # a step clipped onto a checkpoint may be short; a CFL step may not
                if dt < self.dt_floor and dt < rest:
                    raise StepBudgetError(
                        f"step {self.n_steps + 1} from t = {self.t0 + self.t!r} took dt = {dt!r}, "
                        f"below 1e-12 * t_end = {self.dt_floor!r}: the run would not reach t_end"
                    )
                # a clipped step lands on t_target, which t + rest may round off
                self.t = self.t + dt if dt < rest else t_target
                self.n_steps += 1
                if self.n_steps == max_steps:
                    break
            U = _hydro_step(U, self.dx, 0.5 * dt, self.g, self.limiter)
            self.observe(U)
        except (PositivityError, EllipticSolveError) as exc:
            step_no, self.t = under_way
            self.n_steps = step_no - 1
            raise type(exc)(f"step {step_no} from t = {self.t0 + self.t!r}: {exc}") from exc
        return np.tile(U, (1, n // m))


def _run_arguments(t_end, output_times=None, cfl=0.45, limiter="mc"):
    """Check a run's arguments in simulate's key order; return (times, cfl), where times
    are the distinct output_times, each in (0, t_end], ascending, with t_end last."""
    t_end = _number(t_end, "t_end")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    times = _float(() if output_times is None else output_times, "output_times")
    if np.ndim(times) != 1:
        raise ValueError(f"output_times must be 1-D, got output_times of shape {np.shape(times)}")
    times = sorted(set(times.tolist()))
    for t in times:
        if not 0.0 < t <= t_end:
            raise ValueError(f"checkpoint time {t!r} is outside (0, t_end = {t_end!r}]")
    if not times or times[-1] < t_end:
        times.append(t_end)
    return times, _check_scheme(cfl, limiter)


def run_experiment(
    config: WaveTrainConfig,
    t_end: float,
    output_times=None,
    out_dir=None,
    cfl: float = 0.45,
    limiter: str = "mc",
) -> RunResult:
    """Integrate a wave train to t_end, checkpointing at the requested times.

    Checkpoints land exactly on the requested instants, even an ulp apart:
    a chain takes stages while t is short of its checkpoint, and the step
    clipped onto it ends there.  Each must lie in (0, t_end], and the run
    always ends with a checkpoint at t_end.  Each stretch between two
    checkpoints is one Strang chain H(dt0/2) D(dt0) H((dt0 + dt1)/2) ...
    D(dtk) H(dtk/2): one hydrostatic stage between two dispersive substeps,
    where `step` takes two.  The chain closes with a half-step at every
    checkpoint, so a checkpoint one CFL step from t = 0 holds `step` of the
    initial state, bit for bit.  h_min and h_max span the initial state, the
    state after every stage and each checkpoint.  If out_dir is given, each
    checkpoint writes a field CSV (x,h,u) and a portrait CSV (h,h_hdot), and
    the run writes a diagnostics series plus a manifest; partial output
    survives failures.  It first deletes the checkpoint CSVs an earlier run
    left in out_dir (field_ or portrait_, four or more digits, .csv), so the
    directory holds this run's files only.  Solver errors name the step and
    the time it started from; a CFL step shorter than 1e-12 * t_end raises
    StepBudgetError.
    """
    times, cfl = _run_arguments(t_end, output_times, cfl, limiter)
    field = init_wavetrain(config)

    out = None
    if out_dir is not None:
        import pathlib

        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for old in out.iterdir():    # an earlier run's checkpoints, which this run may not overwrite
            if re.fullmatch(r"(field|portrait)_[0-9]{4,}\.csv", old.name):
                old.unlink()
        x_words = format_column(field.x)     # every checkpoint has the same cells

    U = np.array((field.h, field.q))
    dx, g = field.dx, field.g
    run = _Run(dx, g, cfl, limiter, dt_floor=1e-12 * times[-1])    # times[-1] is t_end
    run.observe(U)
    checkpoints = []
    diag_series = [(0.0, *diagnostics(field))]
    try:
        for idx, t_target in enumerate(times):
            U = run.advance(U, t_target)
            snap = SGNField(dx=dx, g=g, h=U[0], q=U[1], t=run.t)
            checkpoints.append((run.t, snap))
            diag_series.append((run.t, *diagnostics(snap)))
            if out is not None:
                h_words = format_column(snap.h)  # the portrait's h column is snap.h
                write_csv(out / f"field_{idx:04d}.csv", "x,h,u",
                          (x_words, h_words, format_column(snap.u)))
                write_csv(out / f"portrait_{idx:04d}.csv", "h,h_hdot",
                          (h_words, format_column(phase_portrait(snap)[:, 1])))
    finally:
        if out is not None:
            write_csv(out / "diagnostics.csv", "t,mass,momentum,energy",
                      map(format_column, np.array(diag_series).T))
            _write_manifest(out / "manifest.txt", config, field, run, times)
    return RunResult(
        config=config, checkpoints=checkpoints,
        diag_series=diag_series, h_min=run.h_min, h_max=run.h_max, n_steps=run.n_steps,
    )


def _write_manifest(path, config, field0, run: _Run, times) -> None:
    from . import __version__

    r, wave = config.roots, config.wave
    rows = [
        ("code_version", __version__),
        ("roots", f"{r.h0!r},{r.h1!r},{r.h2!r}"),
        # the train's other inputs; str of a float is its repr
        *((f.name, str(getattr(config, f.name))) for f in fields(config)[1:]),
        ("n_cells", str(field0.n_cells)),
        ("dx", repr(field0.dx)),
        ("wavelength", repr(wave.L)),
        ("phase_speed", repr(wave.D)),
        ("cfl", repr(run.cfl)),
        ("limiter", run.limiter),
        ("t_final", repr(run.t)),
        ("n_steps", str(run.n_steps)),
        ("h_min", repr(run.h_min)),
        ("h_max", repr(run.h_max)),
        ("checkpoint_times", ";".join(map(repr, times))),
    ]
    with open(path, "w", newline="\n") as fh:
        for key, val in rows:
            fh.write(f"{key} = {val}\n")
