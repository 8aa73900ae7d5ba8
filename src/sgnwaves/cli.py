"""Command-line front end: wave construction, eigenvalue reports, region
scans, and time-domain simulations.

Exit codes: 0 success, 2 validation failure, 3 numerical degeneracy,
4 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import pathlib
import sys

import numpy as np

from .csvio import format_column, write_csv
from .errors import (
    DegeneratePencilError,
    DomainError,
    EllipticSolveError,
    PositivityError,
    SgnError,
    StepBudgetError,
)
from .modulation import (
    assemble_AB,
    characteristic_eigenvalues,
    scan_region,
    write_scan_csv,
)
from .solver import (
    WaveTrainConfig,
    _check_cfl,
    _check_limiter,
    _checkpoint_times,
    run_experiment,
)
from .waves import (
    RootTriple,
    averaged_h,
    averaged_hinv,
    build_wave,
    profile,
    velocity_from_depth,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_SOLVER = 4


def _float_list(text: str, count: int | None = None, usage: str = "") -> list[float]:
    """Floats of a comma-separated list; `usage` says what a list of the wrong `count` needs."""
    parts = text.split(",") if text else []
    if count is not None and len(parts) != count:
        raise DomainError(f"{usage}, got {text!r}")
    return [float(p) for p in parts]


def _parse_roots(text: str) -> RootTriple:
    return RootTriple(*_float_list(text, 3, "expected three comma-separated depths"))


@contextlib.contextmanager
def _set_by(origin: str):
    """Raise a ValueError of the block as invalid input named by where its value was set."""
    try:
        yield
    except ValueError as exc:  # DomainError is a ValueError too
        raise DomainError(f"{origin}: {exc}") from None


def _fmt(x: float) -> str:
    return repr(float(x))


# --- wave ------------------------------------------------------------------

def cmd_wave(args) -> int:
    with _set_by("--roots"):
        roots = _parse_roots(args.roots)
    if args.samples < 16:
        raise DomainError(f"--samples must be >= 16, got {args.samples}")
    wave = build_wave(roots, args.g, args.sign)
    xi = np.linspace(0.0, wave.L, args.samples)
    h = profile(wave, xi)
    u = velocity_from_depth(h, wave.constants, wave.D)
    out = pathlib.Path(args.out)
    write_csv(out, "xi,h,u", map(format_column, (xi, h, u)))
    c = wave.constants
    print(f"wavelength L = {_fmt(wave.L)}")
    print(f"phase speed D = {_fmt(wave.D)}  (zero mean velocity frame)")
    print(f"m = {_fmt(c.m)}")
    print(f"i = {_fmt(c.i)}")
    print(f"epsilon = {_fmt(c.epsilon)}")
    print(f"h_bar = {_fmt(averaged_h(roots))}")
    print(f"hinv_bar = {_fmt(averaged_hinv(roots))}")
    print(f"k = {_fmt(wave.k)}")
    print(f"n = {_fmt(roots.characteristic)}")
    print(f"profile written to {out}")
    return EXIT_OK


# --- eigen -----------------------------------------------------------------

def cmd_eigen(args) -> int:
    with _set_by("--roots"):
        roots = _parse_roots(args.roots)
    if args.D is not None and args.galilean_U is not None:
        raise DomainError("give at most one of --D and --galilean-U")
    state = build_wave(roots, args.g, args.sign, args.D)
    if args.galilean_U is not None:
        state = dataclasses.replace(state, D=state.D + args.galilean_U)
    cls = characteristic_eigenvalues(assemble_AB(state))
    print(f"D = {_fmt(state.D)}")
    for j, lam in enumerate(cls.roots, start=1):
        print(f"lambda{j} = {_fmt(lam.real)}  (imag {_fmt(lam.imag)})")
    print(f"n_positive = {cls.n_positive}, n_negative = {cls.n_negative}")
    print(f"resultant = {_fmt(cls.resultant)}")
    verdict = "yes" if (cls.all_real and cls.distinct) else "no"
    print(f"strictly hyperbolic: {verdict}")
    return EXIT_OK


# --- scan ------------------------------------------------------------------

_GNUPLOT_MAP = """\
# render with: gnuplot {name}
set datafile separator ","
set terminal pngcairo size 900,700
set output "{png}"
set xlabel "s"
set ylabel "tau"
set title "{title}"
set palette maxcolors 2
set cbrange [{lo}:{hi}]
plot "{csv}" skip 1 using 1:2:{expr} with points pt 5 ps 1.2 palette notitle
"""


def _write_plot_scripts(out_csv: pathlib.Path) -> list[pathlib.Path]:
    base = out_csv.with_suffix("")
    scripts = []
    spec = [
        ("resultant_sign", "sign of Res(p, p')", "(column(8) < 0 ? -1 : 1)", -1, 1),
        ("sign_pattern", "positive eigenvalue count", "(column(9))", 2, 3),
    ]
    for tag, title, expr, lo, hi in spec:
        path = base.parent / f"{base.name}_{tag}.gnuplot"
        path.write_text(
            _GNUPLOT_MAP.format(
                name=path.name, png=f"{base.name}_{tag}.png", title=title,
                csv=out_csv.name, expr=expr, lo=lo, hi=hi,
            )
        )
        scripts.append(path)
    return scripts


def cmd_scan(args) -> int:
    with _set_by("--window"):
        window = _float_list(args.window, 4, "needs smin,smax,taumin,taumax")
    out = pathlib.Path(args.out)
    if out.is_dir() or not os.access(out if out.exists() else out.parent, os.W_OK):
        raise OSError(f"cannot write the scan to {out}")  # before the scan runs, creating nothing
    result = scan_region(*window, args.grid, args.g, args.sign)
    write_scan_csv(result, out)
    scripts = _write_plot_scripts(out)
    n_pts = result.reason.size
    n_fail = len(result.errors)
    for s, tau, msg in result.errors:
        print(f"point (s={s}, tau={tau}) failed: {msg}", file=sys.stderr)
    print(f"scan: {n_pts} points, {n_fail} failures -> {out}")
    print(f"all strictly hyperbolic: {'yes' if result.all_hyperbolic else 'no'}")
    print(
        "resultant sign constant: "
        f"{'yes' if result.resultant_sign_constant else 'no'}"
    )
    for s in scripts:
        print(f"plot script: {s}")
    if n_fail > 0.01 * n_pts:
        print(f"error: {n_fail}/{n_pts} points failed", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


# --- simulate ----------------------------------------------------------------

# Each simulate config key and the parser of its value.  A key the config
# leaves out takes the default of WaveTrainConfig (for its fields) or of
# run_experiment (for the rest; checkpoints are its output_times).
SIMULATE_KEYS = {
    "roots": _parse_roots, "g": float, "sign_m": int,
    "n_waves": int, "amplitude": float, "cells_per_wavelength": int,
    "t_end": float, "checkpoints": lambda text: _float_list(text.replace(";", ",")),
    "cfl": float, "limiter": str,
}
# The solver's rule for each run key, given the run values read so far.
_RUN_RULES = {
    "t_end": lambda kw: _checkpoint_times(kw["t_end"], None),
    "checkpoints": lambda kw: _checkpoint_times(kw["t_end"], kw["checkpoints"]),
    "cfl": lambda kw: _check_cfl(kw["cfl"]),
    "limiter": lambda kw: _check_limiter(kw["limiter"]),
}


def _read_config(path: pathlib.Path) -> dict:
    """Each key's value text and where it was set: {key: (text, "file:line: key 'k'")}."""
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        ln = exc.object.count(b"\n", 0, exc.start) + 1
        raise DomainError(f"{path}:{ln}: {exc}") from None
    cfg, line_of = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in SIMULATE_KEYS:
            raise DomainError(f"{path}:{ln}: unknown key {key!r}")
        if key in cfg:
            raise DomainError(f"{path}:{ln}: key {key!r} was already set on line {line_of[key]}")
        cfg[key], line_of[key] = (val.strip(), f"{path}:{ln}: key {key!r}"), ln
    return cfg


def cmd_simulate(args) -> int:
    text = _read_config(pathlib.Path(args.config))
    for key, flag in (("t_end", "--t-end"), ("checkpoints", "--checkpoints")):
        if getattr(args, key) is not None:  # flags override file values
            text[key] = (getattr(args, key), flag)
    if "roots" not in text or "t_end" not in text:
        raise DomainError("config must define at least 'roots' and 't_end'")
    # roots and g come first, as the train is built from them, and t_end
    # next, as each checkpoint is checked against it; the other keys follow
    # in file order, so a value that WaveTrainConfig or a run rule rejects is
    # named like one that does not parse
    value, origin = text.pop("roots")
    with _set_by(origin):
        wave = {"roots": _parse_roots(value)}
    if "g" in text:
        value, origin = text.pop("g")
        with _set_by(origin):
            wave["g"] = float(value)
    with _set_by(origin):    # g's line names a joint overflow, when the file sets g
        config = WaveTrainConfig(**wave)
    train, kw = {f.name for f in dataclasses.fields(WaveTrainConfig)}, {}
    for key, (value, origin) in {"t_end": text.pop("t_end"), **text}.items():
        with _set_by(origin):
            value = SIMULATE_KEYS[key](value)
            if key in train:
                config = dataclasses.replace(config, **{key: value})
            else:
                kw[key] = value
                _RUN_RULES[key](kw)
    if "checkpoints" in kw:
        kw["output_times"] = kw.pop("checkpoints")
    result = run_experiment(config, out_dir=args.out_dir, **kw)
    print(f"simulated {result.n_steps} steps to t = {_fmt(result.checkpoints[-1][0])}")
    print(f"depth envelope: [{_fmt(result.h_min)}, {_fmt(result.h_max)}]")
    print(f"artifacts in {args.out_dir}")
    return EXIT_OK


# --- dispatcher ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sgnwaves",
        description="Cnoidal SGN waves: profiles, modulation eigenvalues, scans, simulations",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    physics = argparse.ArgumentParser(add_help=False)
    physics.add_argument("--g", type=float, default=9.81)
    physics.add_argument("--sign", type=int, choices=(-1, 1), default=-1)
    one_wave = argparse.ArgumentParser(add_help=False)
    one_wave.add_argument("--roots", required=True, help="h0,h1,h2")

    w = sub.add_parser("wave", parents=[one_wave, physics],
                       help="construct one periodic wave, write its profile")
    w.add_argument("--samples", type=int, default=512)
    w.add_argument("--out", default="wave_profile.csv")
    w.set_defaults(func=cmd_wave)

    e = sub.add_parser("eigen", parents=[one_wave, physics],
                       help="modulation eigenvalues for one wave")
    e.add_argument("--D", type=float, default=None, help="phase speed (default: U=0)")
    e.add_argument(
        "--galilean-U", type=float, default=None, dest="galilean_U",
        help="mean velocity of the frame (shifts D from the U=0 value)",
    )
    e.set_defaults(func=cmd_eigen)

    s = sub.add_parser("scan", parents=[physics], help="hyperbolicity scan over the (s,tau) plane")
    s.add_argument("--window", default="1,100,0,100", help="smin,smax,taumin,taumax")
    s.add_argument("--grid", type=int, default=50)
    s.add_argument("--out", default="scan.csv")
    s.set_defaults(func=cmd_scan)

    m = sub.add_parser("simulate", help="run a wave-train experiment from a config file")
    m.add_argument("--config", required=True)
    m.add_argument("--t-end", default=None, dest="t_end")
    m.add_argument("--checkpoints", default=None, help="comma-separated times")
    m.add_argument("--out-dir", default="run_out", dest="out_dir")
    m.set_defaults(func=cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PositivityError, EllipticSolveError, StepBudgetError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DegeneratePencilError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (DomainError, SgnError, OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
