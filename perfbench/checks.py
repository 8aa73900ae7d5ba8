"""Correctness checks on the outputs the benchmark collects.

Every function takes plain data (numbers, arrays, file bytes) and returns a
list of failure messages; an empty list means the check passed.  Keeping
them free of the program under test lets test_checks.py feed them
corrupted outputs.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# Relative tolerance on eigenvalues, scaled by the largest |lambda| of a
# point.  A batched prototype of the scan matched the per-point path to
# 1.3e-8; the smallest |lambda|/max|lambda| on the 50x50 paper grid is
# 2.8e-6, so no sign can flip within this tolerance.
EIG_RTOL = 1e-7
MASS_RTOL = 1e-12       # conservation "to rounding"
MOMENTUM_RTOL = 1e-12   # relative to the domain integral of |q|
STILL_ATOL = 1e-14


def parse_scan_csv(text: str) -> dict:
    """Columns of a write_scan_csv file by header name, as arrays."""
    rows = list(csv.DictReader(io.StringIO(text)))

    def col(key):
        return np.array([float(r[key]) for r in rows])

    return {
        "s": col("s"),
        "tau": col("tau"),
        "lam": np.column_stack([col(f"lambda{j}") for j in range(1, 5)]),
        "n_positive": np.array([int(r["n_positive"]) for r in rows]),
    }


def eigenvalue_failures(lam, ref_lam, label: str) -> list[str]:
    """Sorted real eigenvalues per point against a reference, EIG_RTOL."""
    lam = np.sort(np.asarray(lam, dtype=float), axis=-1)
    ref = np.sort(np.asarray(ref_lam, dtype=float), axis=-1)
    if lam.shape != ref.shape:
        return [f"{label}: eigenvalue array shape {lam.shape} != reference {ref.shape}"]
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    bad = ~(np.abs(lam - ref) <= EIG_RTOL * scale)
    n_bad = int(np.count_nonzero(np.any(bad, axis=-1)))
    if n_bad:
        worst = float(np.nanmax(np.where(np.isfinite(lam), np.abs(lam - ref) / scale, np.inf)))
        return [f"{label}: {n_bad} points off the reference eigenvalues "
                f"(worst relative deviation {worst:.2e} > {EIG_RTOL:.0e})"]
    return []


def sign_structure_failures(grid, label: str) -> list[str]:
    """Sign-pattern grid: only (3+,1-) and (2+,2-) classes, one change per s-row."""
    grid = np.asarray(grid)
    out = []
    classes = set(np.unique(grid).tolist())
    if not classes <= {2, 3}:
        out.append(f"{label}: sign-pattern classes {sorted(classes)} not within {{2, 3}}")
    changes = np.count_nonzero(np.diff(grid, axis=1), axis=1)
    if np.any(changes != 1):
        out.append(f"{label}: {int(np.count_nonzero(changes != 1))} s-rows do not change "
                   "sign pattern exactly once")
    return out


def scan_failures(all_hyperbolic: bool, grid, label: str) -> list[str]:
    out = [] if all_hyperbolic else [f"{label}: not all points strictly hyperbolic"]
    return out + sign_structure_failures(grid, label)


def sign_count_failures(grid, ref_n_positive) -> list[str]:
    grid = np.asarray(grid).ravel()
    ref = np.asarray(ref_n_positive).ravel()
    got = {k: int(np.count_nonzero(grid == k)) for k in (2, 3)}
    want = {k: int(np.count_nonzero(ref == k)) for k in (2, 3)}
    if got != want:
        return [f"scan50: sign-pattern counts {got} != reference {want}"]
    return []


def classification_failures(all_real: bool, distinct: bool, label: str) -> list[str]:
    if all_real and distinct:
        return []
    return [f"{label}: eigenvalues not real and distinct "
            f"(all_real={all_real}, distinct={distinct})"]


def envelope_failures(h_min, h_max, lo, hi, residual, residual_max) -> list[str]:
    """Acceptance envelope of the desk-scale run and its portrait residual."""
    out = []
    if not lo <= h_min <= h_max <= hi:
        out.append(f"depth envelope [{h_min!r}, {h_max!r}] outside [{lo!r}, {hi!r}]")
    if not residual <= residual_max:
        out.append(f"portrait residual {residual!r} > {residual_max!r}")
    return out


def conservation_failures(values, rtol: float, scale: float, label: str) -> list[str]:
    """Every value of a conserved series within rtol * scale of the first."""
    v = np.asarray(values, dtype=float)
    drift = float(np.max(np.abs(v - v[0]))) if v.size else 0.0
    if not drift <= rtol * scale:
        return [f"{label} drifted by {drift:.3e} > {rtol:.0e} * {scale:.3e}"]
    return []


def still_water_failures(h, q, depth: float) -> list[str]:
    dh = float(np.max(np.abs(np.asarray(h) - depth)))
    dq = float(np.max(np.abs(q)))
    if not (dh <= STILL_ATOL and dq <= STILL_ATOL):
        return [f"still water moved: max|h - h0| = {dh:.3e}, max|q| = {dq:.3e} "
                f"(tol {STILL_ATOL:.0e})"]
    return []


def rotation_failures(h_a, q_a, h_b, q_b, shift: int) -> list[str]:
    """step(roll(f)) must equal roll(step(f)) bit for bit."""
    if np.array_equal(np.roll(h_a, shift), h_b) and np.array_equal(np.roll(q_a, shift), q_b):
        return []
    return [f"one step is not bitwise rotation-equivariant under shift {shift}"]


def missing_file_failures(present, expected, label: str) -> list[str]:
    missing = sorted(set(expected) - set(present))
    if missing:
        return [f"{label}: {len(missing)} expected files missing, e.g. {missing[0]}"]
    return []


def diagnostics_mass(text: str) -> np.ndarray:
    """Mass column of a diagnostics.csv."""
    return np.array([float(r["mass"]) for r in csv.DictReader(io.StringIO(text))])


def manifest_fields(text: str, keys) -> dict:
    """The given `key = value` lines of a run manifest."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep and key in keys:
            out[key] = val
    return out


def identical_outputs_failures(first: dict, other: dict, label: str) -> list[str]:
    """Two runs' artifact digests must match file for file."""
    if first == other:
        return []
    differ = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
    return [f"{label}: {len(differ)} artifacts differ between repetitions, e.g. {differ[0]}"]
