"""1D time-domain solver for the SGN equations on a periodic interval.

Unknowns are the cell values of depth h and momentum q = h u.  The system

    h_t + (h u)_x = 0
    (h u)_t + (h u^2 + p)_x = 0,   p = g h^2/2 + (1/3) h^2 (D^2 h / D t^2)

is advanced by Strang splitting between a hydrostatic shallow-water step
and a dispersive momentum correction:

  * hydrostatic: MUSCL-Hancock finite volumes with an HLL flux and a
    configurable slope limiter (default monotonized-central, which keeps
    the scheme at second order on smooth data), on the stacked (2, n)
    state U = (h, q) so that each slope, face-state and flux expression
    runs once for both fields;
  * dispersive: the non-hydrostatic pressure part satisfies the linear
    elliptic problem

        -(p'/h)' + 3 p / h^3 = 2 u_x^2 + g h_xx

    (substitute u_t = -p_total_x / h into the material derivatives of h),
    a symmetric positive-definite cyclic tridiagonal system in the frozen
    h.  Each step builds, anchors and factors it once (L D L^T by LAPACK
    pttrf); both stages of Heun's method for the conservative update
    q_t = -p_x reuse the factors with one pttrs back-substitution each.

Cyclic neighbours and rotations are slice concatenations: a ghost cell
at each end of an array, or the two pieces of a rotation.  Both substeps
conserve mass and total momentum to rounding, and the whole step
commutes bitwise with grid rotations: the Sherman-Morrison break sits at
an anchor cell chosen by cyclic lexicographic comparison, so the choice
itself rotates with the data even when several cells tie exactly in
floating point.  Exact ties are resolved by rank doubling, in at most
O(n log^2 n).

An exactly periodic state (still water, or tiled copies of one wave) has
no unique anchor, since every copy ties.  When the maximum of h is not
unique, the step looks for the shortest block of at least two cells whose
copies make up (h, q); the count of cells tied at the maximum rules out
most block lengths before any arrays are compared.  If there is one, the
step advances that block alone and tiles it: O(block) work, the same dt,
rotation equivariance on these states too, and a result within rounding
of the full-length step.  Other data pays one max and one compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .csvio import write_csv
from .errors import EllipticSolveError, PositivityError, StepBudgetError
from .waves import (
    CnoidalWave,
    RootTriple,
    build_wave,
    oscillation_rhs,
    profile,
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
        if self.h.shape != self.q.shape or self.h.ndim != 1:
            raise ValueError("h and q must be 1D arrays of equal length")
        if self.h.size < 2:
            raise ValueError(f"a periodic field needs at least 2 cells, got {self.h.size}")
        if not (0.0 < self.dx < np.inf and 0.0 < self.g < np.inf):
            raise ValueError(f"dx and g must be finite and positive, got dx={self.dx}, g={self.g}")
        if not (np.all(np.isfinite(self.h)) and np.all(np.isfinite(self.q))):
            raise ValueError("h and q must be finite everywhere")
        if not np.all(self.h > 0.0):
            raise PositivityError("initial depth must be positive everywhere")

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
    """A periodic train of N identical cnoidal waves, optionally perturbed."""

    roots: RootTriple
    g: float = 9.81
    sign_m: int = -1
    n_waves: int = 5
    amplitude: float = 0.0        # relative height perturbation a
    cells_per_wavelength: int = 400

    def __post_init__(self):
        if self.n_waves < 1:
            raise ValueError(f"n_waves must be >= 1, got {self.n_waves}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.cells_per_wavelength < 16:
            raise ValueError(
                f"cells_per_wavelength must be >= 16, got {self.cells_per_wavelength}"
            )


def init_wavetrain(config: WaveTrainConfig) -> SGNField:
    """Sample the perturbed wave train on the grid.

    Domain length L1 = n_waves * L.  Height gets the long-wavelength
    modulation h~(x) = h(x) (1 + a cos(2 pi x / L1)); velocity keeps the
    traveling-wave relation u~ = m/h~ + D with D = -m/h_bar.
    """
    wave = build_wave(config.roots, config.g, config.sign_m)
    L1 = config.n_waves * wave.L
    n = config.n_waves * config.cells_per_wavelength
    dx = L1 / n
    x = (np.arange(n) + 0.5) * dx
    h = profile(wave, x)
    if config.amplitude != 0.0:
        h = h * (1.0 + config.amplitude * np.cos(2.0 * np.pi * x / L1))
    u = wave.constants.m / h + wave.D
    return SGNField(dx=dx, g=config.g, h=h, q=h * u, t=0.0)


# --- periodic neighbours -------------------------------------------------

def _cyclic_pad(v: np.ndarray) -> np.ndarray:
    """v with one periodic ghost cell at each end of its last axis."""
    return np.concatenate((v[..., -1:], v, v[..., :1]), axis=-1)


def _central_diff(v, dx):
    """Cyclic (v[i+1] - v[i-1]) / (2 dx)."""
    vp = _cyclic_pad(v)
    return (vp[2:] - vp[:-2]) / (2.0 * dx)


# --- hydrostatic substep -------------------------------------------------

def _minmod(a, b):
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


def _slopes(v: np.ndarray, limiter: str) -> np.ndarray:
    # d[i] = v[i] - v[i-1] for cells 0..n: dl is d, dr is d one cell on
    vp = _cyclic_pad(v)
    d = vp[..., 1:] - vp[..., :-1]
    dl, dr = d[..., :-1], d[..., 1:]
    if limiter == "central":
        return 0.5 * (dl + dr)
    if limiter == "minmod":
        return _minmod(dl, dr)
    if limiter == "mc":
        c = 0.5 * (dl + dr)
        lim = 2.0 * np.minimum(np.abs(dl), np.abs(dr))
        return np.where(dl * dr <= 0.0, 0.0, np.sign(c) * np.minimum(np.abs(c), lim))
    raise ValueError(f"unknown limiter {limiter!r}; choose from {LIMITERS}")


def _swe_flux(U, g):
    h, q = U
    return np.array((q, q * q / h + 0.5 * g * h * h))


def _hydro_step(U, dx, dt, g, limiter):
    """One MUSCL-Hancock shallow-water update of size dt of the state U = (h, q)."""
    half = 0.5 * _slopes(U, limiter)
    UR = U + half    # state at the right face of each cell
    UL = U - half    # state at the left face
    # predictor: advance face states by dt/2 with the cell's flux difference
    lam = 0.5 * dt / dx
    dU = lam * (_swe_flux(UR, g) - _swe_flux(UL, g))
    UR -= dU
    UL -= dU
    h_face = np.fmin(UR[0], UL[0])    # a NaN in one face does not hide the other
    if np.any(h_face <= 0.0):
        i = int(np.argmax(h_face <= 0.0))
        raise PositivityError(
            f"reconstructed face depth lost positivity at cell {i} (h = {float(h_face[i])!r})"
        )
    # HLL flux at interface i+1/2 between cell i (right face) and i+1 (left face)
    Ul = UR
    Ur = np.concatenate((UL[:, 1:], UL[:, :1]), axis=1)
    (hl, ql), (hr, qr) = Ul, Ur
    ul = ql / hl
    ur = qr / hr
    cl = np.sqrt(g * hl)
    cr = np.sqrt(g * hr)
    sl = np.minimum(np.minimum(ul - cl, ur - cr), 0.0)
    sr = np.maximum(np.maximum(ul + cl, ur + cr), 0.0)
    F = (sr * _swe_flux(Ul, g) - sl * _swe_flux(Ur, g) + sl * sr * (Ur - Ul)) / (sr - sl)
    Fp = np.concatenate((F[:, -1:], F), axis=1)    # Fp[:, i] = F[:, i-1]
    return U - dt / dx * (Fp[:, 1:] - Fp[:, :-1])


# --- dispersive substep --------------------------------------------------

def _anchor_cell(key: np.ndarray) -> int:
    """Cyclic lexicographic argmax: rotation-equivariant even under exact ties.

    Returns the lowest index i whose rotation key[i], key[i+1], ... (mod n)
    is lexicographically largest.  Exact ties are broken by rank doubling:
    rank[i] orders the blocks of length `width` starting at i, and the pair
    (rank[i], rank[i + width]) orders those of length 2 * width.  It stops
    when one block of maximal rank is left, or when a doubling splits no
    class of equal blocks: then blocks equal at one length are equal at
    every length, as on flat or exactly periodic data.
    """
    n = key.size
    cand = np.flatnonzero(key == key.max())
    if cand.size == 1:
        return int(cand[0])
    values, rank = np.unique(key, return_inverse=True)
    width = 1
    while width < n:
        classes = values.size
        ahead = np.concatenate((rank[width:], rank[:width]))    # rank[(i + width) % n]
        values, rank, counts = np.unique(rank * n + ahead, return_inverse=True, return_counts=True)
        if counts[-1] == 1 or values.size == classes:
            break
        width *= 2
    return int(np.argmax(rank))


def _pressure_operator(h, dx, g):
    """Build, anchor and factor the operator -(p'/h)' + 3 p/h^3 of one frozen h.

    With d0 the anchor's diagonal entry, Sherman-Morrison splits the cyclic
    matrix as A = T + w v^T, w = (-d0, 0, ..., 0, corner), v = -w/d0: T drops
    the corner entries, doubles d0 and adds corner^2/d0 to the last diagonal
    entry, and is SPD tridiagonal.  Returns the anchor cell (rotated to index
    0), T's L D L^T factors d, e, v_last = v[-1], zs = T^-1 w / (1 + v.T^-1 w)
    and g h_xx, the h-only part of the right-hand side.
    """
    inv_dx2 = 1.0 / (dx * dx)
    hp = _cyclic_pad(h)
    w_plus = 2.0 / (h + hp[2:]) * inv_dx2    # 1/h at face i+1/2
    w_minus = np.concatenate((w_plus[-1:], w_plus[:-1]))    # 1/h at face i-1/2
    diag = 3.0 / h ** 3 + w_plus + w_minus
    if not np.all(np.isfinite(diag)):
        i = int(np.argmin(np.isfinite(diag)))    # first non-finite entry
        raise EllipticSolveError(
            f"dispersive operator has a non-finite diagonal entry at cell {i} "
            f"(h = {float(h[i])!r})"
        )
    # rotate the anchor cell to index 0 so the Sherman-Morrison break point
    # is a deterministic function of the data, not of the array origin
    shift = _anchor_cell(diag)
    d = np.concatenate((diag[shift:], diag[:shift]))
    off = -np.concatenate((w_plus[shift:], w_plus[:shift]))    # couples rotated i, i+1
    d0, corner = d[0], off[-1]
    d[0] += d0
    d[-1] += corner * corner / d0
    d, e, info = dpttrf(d, off[:-1])
    if info != 0:
        raise EllipticSolveError(f"dispersive operator is not positive definite (info {info})")
    w = np.zeros_like(d)
    w[[0, -1]] = -d0, corner
    z, _ = dpttrs(d, e, w)
    v_last = -corner / d0
    g_hxx = g * ((hp[2:] - 2.0 * h + hp[:-2]) / (dx * dx))
    return shift, d, e, v_last, z / (1.0 + z[0] + v_last * z[-1]), g_hxx


def _nonhydro_pressure(op, h, q, dx):
    """Solve -(p'/h)' + 3 p/h^3 = 2 u_x^2 + g h_xx with a _pressure_operator of h."""
    shift, d, e, v_last, zs, g_hxx = op
    ux = _central_diff(q / h, dx)
    rhs = 2.0 * ux * ux + g_hxx
    y, _ = dpttrs(d, e, np.concatenate((rhs[shift:], rhs[:shift])))
    p = y - (y[0] + v_last * y[-1]) * zs
    back = p.size - shift
    p = np.concatenate((p[back:], p[:back]))
    if not np.all(np.isfinite(p)):
        i = int(np.argmin(np.isfinite(p)))    # first non-finite cell
        raise EllipticSolveError(f"dispersive pressure solve returned a non-finite value at cell {i}")
    return p


def _dispersive_step(h, q, dx, dt, g):
    """Heun update of q_t = -(p_nh)_x at frozen h; conservative central flux."""
    op = _pressure_operator(h, dx, g)

    def accel(qq):
        return -_central_diff(_nonhydro_pressure(op, h, qq, dx), dx)

    k1 = accel(q)
    k2 = accel(q + dt * k1)
    return q + 0.5 * dt * (k1 + k2)


# --- full step and diagnostics -------------------------------------------

def _divisors(k: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return sorted(set(small + [k // d for d in small]))


def _block_length(h, q) -> int:
    """Shortest block of at least 2 cells whose copies make up (h, q), or n.

    Only a block length m that divides n can repeat; then h holds (n/m)
    equal copies of each of its maxima, so the number of cells tied at the
    maximum of h rules out most m before any arrays are compared.  Data
    with a unique maximum (almost every state after the first step) pays
    one max and one compare.
    """
    n = h.size
    ties = int(np.count_nonzero(h == h.max()))
    if ties < 2:
        return n
    for copies in reversed(_divisors(math.gcd(n, ties))[1:]):    # m ascending, m < n
        m = n // copies
        if m >= 2 and np.array_equal(h[m:], h[:-m]) and np.array_equal(q[m:], q[:-m]):
            return m
    return n


def _step_arrays(h, q, dx, g, cfl, limiter, dt_max=None):
    # n/m identical blocks step identically: step one and tile it.  The
    # block has the same maximum wave speed, so dt is unchanged, and a
    # rotation of the whole state is a rotation of the block, which the
    # step commutes with even where the full state has no unique anchor.
    n, m = h.size, _block_length(h, q)
    h, q, dt = _step_cells(h[:m], q[:m], dx, g, cfl, limiter, dt_max)
    if m < n:
        h, q = np.tile(h, n // m), np.tile(q, n // m)
    return h, q, dt


def _step_cells(h, q, dx, g, cfl, limiter, dt_max):
    u = q / h
    dt = cfl * dx / float(np.max(np.abs(u) + np.sqrt(g * h)))
    if not dt > 0.0:    # NaN or 0: name a non-finite cell before a substep spreads it
        bad = ~(np.isfinite(h) & np.isfinite(q))
        if bad.any():
            i = int(np.argmax(bad))
            raise EllipticSolveError(f"non-finite state at cell {i}: h = {h[i]}, q = {q[i]}")
    if dt_max is not None and dt > dt_max:
        dt = dt_max
    U = _hydro_step(np.array((h, q)), dx, 0.5 * dt, g, limiter)
    U[1] = _dispersive_step(U[0], U[1], dx, dt, g)
    h, q = _hydro_step(U, dx, 0.5 * dt, g, limiter)
    if not np.all(h > 0.0):
        i = int(np.argmin(h > 0.0))    # first cell that is not positive
        raise PositivityError(f"depth lost positivity at cell {i} (h = {float(h[i])!r})")
    return h, q, dt


def _check_step_args(cfl, limiter) -> None:
    if not 0.0 < cfl <= 0.9:
        raise ValueError(f"cfl must be in (0, 0.9], got {cfl}")
    if limiter not in LIMITERS:
        raise ValueError(f"unknown limiter {limiter!r}; choose from {LIMITERS}")


def step(field: SGNField, cfl: float, limiter: str = "mc", dt_max: float | None = None) -> SGNField:
    """Advance one time step of size cfl * dx / max(|u| + sqrt(g h))."""
    _check_step_args(cfl, limiter)
    h, q, dt = _step_arrays(field.h, field.q, field.dx, field.g, cfl, limiter, dt_max)
    return replace(field, h=h, q=q, t=field.t + dt)


def _hdot(h, q, dx):
    # material derivative of depth from the mass equation: Dh/Dt = -h u_x
    return -h * _central_diff(q / h, dx)


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
    wave: CnoidalWave
    checkpoints: list            # (time, SGNField, portrait ndarray)
    diag_series: list            # (time, mass, momentum, energy)
    h_min: float                 # envelope over every step of the run
    h_max: float
    n_steps: int


def portrait_residual(field: SGNField, wave: CnoidalWave) -> float:
    """max |(h hdot)^2 - m^2 F3(h)| over the cells."""
    pts = phase_portrait(field)
    m = wave.constants.m
    return float(np.max(np.abs(pts[:, 1] ** 2 - m * m * oscillation_rhs(pts[:, 0], wave.constants))))


def run_experiment(
    config: WaveTrainConfig,
    t_end: float,
    output_times=None,
    out_dir=None,
    cfl: float = 0.45,
    limiter: str = "mc",
) -> RunResult:
    """Integrate a wave train to t_end, checkpointing at the requested times.

    Checkpoints land exactly on the requested instants (the step before a
    checkpoint is clipped); each must lie in (0, t_end], and the run always
    ends with a checkpoint at t_end.  If out_dir is given, each checkpoint
    writes a field CSV (x,h,u) and a portrait CSV (h,h_hdot), and the run
    writes a diagnostics series plus a manifest; partial output survives
    failures.  Solver errors name the step and the time it started from;
    a CFL step shorter than 1e-12 * t_end raises StepBudgetError.
    """
    _check_step_args(cfl, limiter)
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    wave = build_wave(config.roots, config.g, config.sign_m)
    field = init_wavetrain(config)
    times = sorted(set(float(t) for t in (() if output_times is None else output_times)))
    for t in times:
        if not 0.0 < t <= t_end:
            raise ValueError(f"checkpoint time {t!r} is outside (0, t_end = {t_end!r}]")
    if not times or times[-1] < t_end:
        times.append(float(t_end))

    out = None
    if out_dir is not None:
        import pathlib

        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

    h, q = field.h, field.q
    dx, g = field.dx, field.g
    t = 0.0
    n_steps = 0
    h_min = float(h.min())
    h_max = float(h.max())
    checkpoints = []
    diag_series = [(0.0, *diagnostics(field))]
    dt_floor = 1e-12 * t_end
    try:
        for idx, t_target in enumerate(times):
            while t < t_target - 1e-12 * max(1.0, t_target):
                h, q, dt = _step_arrays(h, q, dx, g, cfl, limiter, dt_max=t_target - t)
                # a step clipped onto a checkpoint may be short; a CFL step may not
                if dt < dt_floor and dt < t_target - t:
                    raise StepBudgetError(
                        f"step {n_steps + 1} from t = {t!r} took dt = {dt!r}, below "
                        f"1e-12 * t_end = {dt_floor!r}: the run would not reach t_end"
                    )
                t += dt
                n_steps += 1
                h_min = min(h_min, float(h.min()))
                h_max = max(h_max, float(h.max()))
            snap = SGNField(dx=dx, g=g, h=h.copy(), q=q.copy(), t=t)
            portrait = phase_portrait(snap)
            checkpoints.append((t, snap, portrait))
            diag_series.append((t, *diagnostics(snap)))
            if out is not None:
                write_csv(out / f"field_{idx:04d}.csv", "x,h,u", (snap.x, snap.h, snap.u))
                write_csv(out / f"portrait_{idx:04d}.csv", "h,h_hdot", portrait.T)
    except (PositivityError, EllipticSolveError) as exc:
        raise type(exc)(f"step {n_steps + 1} from t = {t!r}: {exc}") from exc
    finally:
        if out is not None:
            write_csv(out / "diagnostics.csv", "t,mass,momentum,energy", np.array(diag_series).T)
            _write_manifest(
                out / "manifest.txt", config, wave, field, t, n_steps,
                h_min, h_max, times, cfl, limiter,
            )
    return RunResult(
        config=config, wave=wave, checkpoints=checkpoints,
        diag_series=diag_series, h_min=h_min, h_max=h_max, n_steps=n_steps,
    )


def _write_manifest(
    path, config, wave, field0, t_final, n_steps, h_min, h_max, times, cfl, limiter
) -> None:
    from datetime import datetime, timezone

    from . import __version__

    r = config.roots
    # crude cost gauge: cell-seconds; the paper-scale run is flagged so a
    # caller knows it was accepted as a long-running job, not a CI target
    long_running = field0.n_cells * t_final > 1.0e6
    rows = [
        ("code_version", __version__),
        ("written_utc", datetime.now(timezone.utc).isoformat()),
        ("roots", f"{r.h0!r},{r.h1!r},{r.h2!r}"),
        ("g", repr(config.g)),
        ("sign_m", str(config.sign_m)),
        ("n_waves", str(config.n_waves)),
        ("amplitude", repr(config.amplitude)),
        ("cells_per_wavelength", str(config.cells_per_wavelength)),
        ("n_cells", str(field0.n_cells)),
        ("dx", repr(field0.dx)),
        ("wavelength", repr(wave.L)),
        ("phase_speed", repr(wave.D)),
        ("cfl", repr(cfl)),
        ("limiter", limiter),
        ("t_final", repr(float(t_final))),
        ("n_steps", str(n_steps)),
        ("h_min", repr(h_min)),
        ("h_max", repr(h_max)),
        ("checkpoint_times", ";".join(repr(float(t)) for t in times)),
        ("long_running", "true" if long_running else "false"),
    ]
    with open(path, "w", newline="\n") as fh:
        for key, val in rows:
            fh.write(f"{key} = {val}\n")
