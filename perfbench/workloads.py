"""The benchmark's workloads.

Each workload builds its inputs from a seed in its constructor (that is
the input half of `setup_s`), runs one timed round with `run`, and checks
the round's outputs with `check`, outside the timed region.  `finish`
holds the checks that span the whole run.

Only names the package exports are used, and scans are read only through
`all_hyperbolic`, `sign_pattern_grid()`, `errors` and `write_scan_csv`, so
the untraced run imports no private name and keeps working while the
internals change.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import sgnwaves as sw

import checks

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "ref" / "scan50.npz"

G = 10.0
ROOTS = (1.0, 1.5, 2.0)           # the paper's desk-scale wave
WINDOW = (1.0, 100.0, 0.0, 100.0)  # the paper's (s, tau) window
CFL = 0.45

# Manifest keys that must repeat exactly between two runs of one config;
# written_utc (and anything added later) is left out of the comparison.
MANIFEST_KEYS = (
    "code_version", "roots", "g", "sign_m", "n_waves", "amplitude",
    "cells_per_wavelength", "n_cells", "dx", "wavelength", "phase_speed", "cfl",
    "limiter", "t_final", "n_steps", "h_min", "h_max", "checkpoint_times",
    "long_running",
)


@dataclass
class Outcome:
    """What one round did: work units, operations attempted and failed."""

    work: float
    ops: int
    failed: int = 0
    messages: list = field(default_factory=list)
    failed_points: int = 0
    trace: dict | None = None   # span summary written by a traced child process
    probe: dict | None = None   # speed-probe stats of an untraced child process


def child_env() -> dict:
    """Environment for child processes: the checkout's sources, same thread caps."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def artifact_digests(out_dir: pathlib.Path) -> dict:
    """sha256 of every CSV of a run directory plus the stable manifest fields."""
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
    }
    manifest = checks.manifest_fields((out_dir / "manifest.txt").read_text(), MANIFEST_KEYS)
    digests["manifest.txt"] = hashlib.sha256(repr(sorted(manifest.items())).encode()).hexdigest()
    return digests


def run_files(n_checkpoints: int) -> list[str]:
    names = [f"{kind}_{i:04d}.csv" for i in range(n_checkpoints) for kind in ("field", "portrait")]
    return names + ["diagnostics.csv", "manifest.txt"]


def checkpoint_times(t_end: float, n: int) -> list[float]:
    """n equally spaced instants ending exactly at t_end."""
    return [t_end * k / n for k in range(1, n)] + [t_end]


class Workload:
    """Base: inputs from a seed, one timed round, checks outside the timing."""

    work_name = "ops_per_s"   # name of the work rate printed with the result
    min_rounds = 1
    ops_per_round = 1
    in_child = False          # a round runs in a child process with its own probe

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        # failures of the program already known at the reference commit:
        # reported with every result, not counted as failed operations
        self.known_defects: list[str] = []

    def warm(self) -> None:
        """Untimed round-trip through the same code, so caches are filled."""

    def run(self, traced: bool):
        raise NotImplementedError

    def check(self, out) -> Outcome:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []


class DeskRun(Workload):
    """run_experiment on the paper's desk-scale train, checkpoints to disk."""

    work_name = "cell_steps_per_s"
    min_rounds = 2   # byte-identity needs two repetitions
    N_CHECKPOINTS = 5
    AMPLITUDE = 1e-3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        roots = sw.RootTriple(*ROOTS)
        self.config = sw.WaveTrainConfig(
            roots=roots, g=G, sign_m=-1, n_waves=5,
            amplitude=self.AMPLITUDE, cells_per_wavelength=400,
        )
        self.wave = sw.build_wave(roots, G, -1)
        self.t_end = 5.0 * self.wave.L / abs(self.wave.D)
        self.times = checkpoint_times(self.t_end, self.N_CHECKPOINTS)
        self.n_cells = sw.init_wavetrain(self.config).n_cells
        c = self.wave.constants
        hs = np.linspace(roots.h1, roots.h2, 2001)
        self.residual_max = 5e-2 * float(np.max(c.m ** 2 * sw.oscillation_rhs(hs, c)))
        self.lo = roots.h1 - 5.0 * self.AMPLITUDE * roots.h2
        self.hi = roots.h2 + 5.0 * self.AMPLITUDE * roots.h2
        self.count = 0
        self.digests = None

    def warm(self):
        out = self.workdir / "warm"
        sw.run_experiment(self.config, self.t_end / 2000, out_dir=out)
        shutil.rmtree(out)

    def run(self, traced):
        self.count += 1
        out = self.workdir / f"desk{self.count}"
        return out, sw.run_experiment(self.config, self.t_end, output_times=self.times, out_dir=out)

    def check(self, out):
        out_dir, res = out
        residual = sw.portrait_residual(res.checkpoints[-1][1], self.wave)
        msgs = checks.envelope_failures(res.h_min, res.h_max, self.lo, self.hi,
                                        residual, self.residual_max)
        masses = [row[1] for row in res.diag_series]
        msgs += checks.conservation_failures(masses, checks.MASS_RTOL, abs(masses[0]), "mass")
        msgs += checks.missing_file_failures(
            os.listdir(out_dir), run_files(self.N_CHECKPOINTS), "desk_run")
        digests = artifact_digests(out_dir)
        if self.digests is None:
            self.digests = digests
        else:
            msgs += checks.identical_outputs_failures(self.digests, digests, "desk_run")
        shutil.rmtree(out_dir)
        return Outcome(work=self.n_cells * res.n_steps, ops=1, failed=min(1, len(msgs)),
                       messages=msgs)


def _single_state_roots(lam_rows: np.ndarray, s, tau) -> list[str]:
    """Single-state eigenvalues at (s, tau) rows must match the given rows."""
    got = []
    for si, ti in zip(s, tau):
        state = sw.state_at_rest(sw.RootTriple(1.0, float(si), float(si + ti)), G)
        got.append(sw.characteristic_eigenvalues(sw.assemble_AB(state)).roots.real)
    return checks.eigenvalue_failures(np.array(got), lam_rows, "single-state vs scan")


class Scan(Workload):
    """scan_region over the paper window at 50x50 and at a seeded 100x100."""

    work_name = "points_per_s"
    FINE_N = 100
    N_SHARED = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # fine grid: the same window, origin shifted by under half a cell
        self.fine = (WINDOW[0] + 0.5 * self.rng.random(), WINDOW[1],
                     WINDOW[2] + 0.5 * self.rng.random(), WINDOW[3])
        self.ops_per_round = 50 * 50 + self.FINE_N ** 2
        with np.load(REFERENCE) as ref:
            self.ref = {k: ref[k] for k in ref.files}
        self.shared = self.rng.choice(50 * 50, self.N_SHARED, replace=False)

    def warm(self):
        r = sw.scan_region(*WINDOW, 4, g=G)
        sw.write_scan_csv(r, self.workdir / "warm.csv")

    def run(self, traced):
        return sw.scan_region(*WINDOW, 50, g=G), sw.scan_region(*self.fine, self.FINE_N, g=G)

    def check(self, out):
        coarse, fine = out
        grid, fine_grid = coarse.sign_pattern_grid(), fine.sign_pattern_grid()
        errors = list(coarse.errors) + list(fine.errors)
        msgs = checks.scan_failures(coarse.all_hyperbolic, grid, "scan50")
        msgs += checks.sign_count_failures(grid, self.ref["n_positive"])
        msgs += checks.scan_failures(fine.all_hyperbolic, fine_grid, "scan100")
        path = self.workdir / "scan50.csv"
        sw.write_scan_csv(coarse, path)
        got = checks.parse_scan_csv(path.read_text())
        if not (np.array_equal(got["s"], self.ref["s"])
                and np.array_equal(got["tau"], self.ref["tau"])):
            msgs.append("scan50: grid differs from the reference grid")
        else:
            msgs += checks.eigenvalue_failures(got["lam"], self.ref["lam"], "scan50")
            i = self.shared
            msgs += _single_state_roots(got["lam"][i], got["s"][i], got["tau"][i])
        failed = len(errors) + len(msgs)
        if errors:
            msgs.insert(0, f"{len(errors)} failed scan points, e.g. {errors[0]}")
        n_points = grid.size + fine_grid.size
        return Outcome(work=n_points, ops=n_points, failed=failed, messages=msgs,
                       failed_points=len(errors))


class SingleState(Workload):
    """characteristic_eigenvalues(assemble_AB(state)) one state per call."""

    work_name = "calls_per_s"
    N_STATES = 2000
    N_SHARED = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        s = 1.01 + 98.99 * self.rng.random(self.N_STATES)
        tau = 0.01 + 99.99 * self.rng.random(self.N_STATES)
        shift = self.rng.uniform(-5.0, 5.0, self.N_STATES)   # Galilean frame velocity
        self.states = []
        for si, ti, ui in zip(s, tau, shift):
            roots = sw.RootTriple(1.0, float(si), float(si + ti))
            rest = sw.state_at_rest(roots, G)
            self.states.append(sw.ModulationState(
                D=rest.D + float(ui), h0=roots.h0, h1=roots.h1, h2=roots.h2, g=G, sign_m=-1))
        self.next = 0
        self.shared = self.rng.choice(50 * 50, self.N_SHARED, replace=False)

    def warm(self):
        for state in self.states[:200]:
            sw.characteristic_eigenvalues(sw.assemble_AB(state))

    def run(self, traced):
        state = self.states[self.next % self.N_STATES]
        self.next += 1
        return sw.characteristic_eigenvalues(sw.assemble_AB(state))

    def check(self, cls):
        msgs = checks.classification_failures(cls.all_real, cls.distinct, "single-state")
        return Outcome(work=1, ops=1, failed=len(msgs), messages=msgs)

    def finish(self):
        with np.load(REFERENCE) as ref:
            i = self.shared
            return _single_state_roots(ref["lam"][i], ref["s"][i], ref["tau"][i])


class TiedGrid(Workload):
    """step on still water and on an exactly periodic (tiled) train, 4000 cells.

    Every round steps the same two inputs: exact ties at the maximum are
    what sends the pressure solve's anchor search to depth n, and one step
    of the tiled train already breaks its exact periodicity.
    """

    work_name = "cell_steps_per_s"
    N_WAVES = 10
    CELLS_PER_WAVE = 400
    DEPTH = 2.0
    ops_per_round = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        one = sw.init_wavetrain(sw.WaveTrainConfig(
            roots=sw.RootTriple(*ROOTS), g=G, sign_m=-1, n_waves=1,
            cells_per_wavelength=self.CELLS_PER_WAVE))
        self.n = self.N_WAVES * self.CELLS_PER_WAVE
        self.tiled = sw.SGNField(dx=one.dx, g=G, h=np.tile(one.h, self.N_WAVES),
                                 q=np.tile(one.q, self.N_WAVES))
        self.flat = sw.SGNField(dx=one.dx, g=G, h=np.full(self.n, self.DEPTH), q=np.zeros(self.n))
        self.shift = int(self.rng.integers(1, self.n))
        self.perturbed_cell = int(self.rng.integers(0, self.n))

    def warm(self):
        sw.step(self.tiled, cfl=CFL)
        small = sw.SGNField(dx=self.flat.dx, g=G, h=self.flat.h[:400].copy(), q=np.zeros(400))
        sw.step(small, cfl=CFL)

    def run(self, traced):
        return sw.step(self.flat, cfl=CFL), sw.step(self.tiled, cfl=CFL)

    def check(self, out):
        flat, tiled = out
        msgs = checks.still_water_failures(flat.h, flat.q, self.DEPTH)
        for label, before, after in (("still", self.flat, flat), ("tiled", self.tiled, tiled)):
            m0, p0, _ = sw.diagnostics(before)
            m1, p1, _ = sw.diagnostics(after)
            msgs += checks.conservation_failures([m0, m1], checks.MASS_RTOL, abs(m0),
                                                 f"{label} mass")
            scale = float(np.sum(np.abs(before.q)) * before.dx) or abs(m0)
            msgs += checks.conservation_failures([p0, p1], checks.MOMENTUM_RTOL, scale,
                                                 f"{label} momentum")
        return Outcome(work=2 * self.n, ops=2, failed=min(2, len(msgs)), messages=msgs)

    def _rotation(self, field):
        a = sw.step(field, cfl=CFL)
        b = sw.step(sw.SGNField(dx=field.dx, g=G, h=np.roll(field.h, self.shift),
                                q=np.roll(field.q, self.shift)), cfl=CFL)
        return checks.rotation_failures(a.h, a.q, b.h, b.q, self.shift)

    def finish(self):
        # Ties at the maximum that the cyclic lexicographic comparison can
        # resolve: the tiled train with one cell nudged.  Gated.
        h = self.tiled.h.copy()
        h[self.perturbed_cell] *= 1.0 + 1e-9
        msgs = self._rotation(sw.SGNField(dx=self.tiled.dx, g=G, h=h, q=self.tiled.q))
        # Exactly periodic data has no unique anchor; the step is known not
        # to be bitwise equivariant there.  Reported, not gated.
        self.known_defects = [f"tiled train: {m}" for m in self._rotation(self.tiled)]
        return msgs


class CliFrames(Workload):
    """A cold `sgnwaves simulate` process writing 50 animation frames."""

    work_name = "cell_steps_per_s"
    in_child = True
    N_FRAMES = 50
    N_WAVES = 2
    CELLS_PER_WAVE = 400
    TIMEOUT_S = 120

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        wave = sw.build_wave(sw.RootTriple(*ROOTS), G, -1)
        self.period = wave.L / abs(wave.D)
        times = checkpoint_times(self.period, self.N_FRAMES)
        self.config_path = workdir / "frames.cfg"
        self.config_path.write_text(
            f"roots = {','.join(repr(r) for r in ROOTS)}\n"
            f"g = {G!r}\nsign_m = -1\nn_waves = {self.N_WAVES}\namplitude = 0.001\n"
            f"cells_per_wavelength = {self.CELLS_PER_WAVE}\n"
            f"t_end = {self.period!r}\ncheckpoints = {','.join(repr(t) for t in times)}\n"
        )
        self.n_cells = self.N_WAVES * self.CELLS_PER_WAVE
        self.count = 0

    def _invoke(self, out_dir, traced, extra=()):
        args = ["simulate", "--config", str(self.config_path), "--out-dir", str(out_dir), *extra]
        result_path = out_dir.with_suffix(".child.json")
        cmd = [sys.executable, str(HERE / "child.py"), "cli", str(result_path),
               str(int(traced)), *args]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=self.TIMEOUT_S)
        return out_dir, proc, result_path, traced

    def warm(self):
        out_dir, proc, result_path, _ = self._invoke(
            self.workdir / "warm", False,
            ("--t-end", repr(self.period / 50), "--checkpoints", repr(self.period / 100)))
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up invocation failed: {proc.stderr.strip()[-500:]}")
        shutil.rmtree(out_dir)
        result_path.unlink()

    def run(self, traced):
        self.count += 1
        return self._invoke(self.workdir / f"frames{self.count}", traced)

    def check(self, out):
        out_dir, proc, result_path, traced = out
        if proc.returncode != 0:
            return Outcome(work=0, ops=1, failed=1, messages=[
                f"cli_frames: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"])
        msgs = checks.missing_file_failures(
            os.listdir(out_dir), run_files(self.N_FRAMES), "cli_frames")
        work = 0
        if not msgs:
            mass = checks.diagnostics_mass((out_dir / "diagnostics.csv").read_text())
            msgs += checks.conservation_failures(mass, checks.MASS_RTOL, abs(mass[0]),
                                                 "cli_frames mass")
            n_steps = checks.manifest_fields((out_dir / "manifest.txt").read_text(),
                                             ("n_steps",)).get("n_steps", "0")
            work = self.n_cells * int(n_steps)
        child = json.loads(result_path.read_text())
        result_path.unlink()
        shutil.rmtree(out_dir)
        return Outcome(work=work, ops=1, failed=min(1, len(msgs)), messages=msgs,
                       trace=child if traced else None, probe=None if traced else child)


WORKLOADS = {
    "desk_run": DeskRun,
    "scan": Scan,
    "single_state": SingleState,
    "tied_grid": TiedGrid,
    "cli_frames": CliFrames,
}
