"""Shared test helpers."""

import pathlib
from functools import lru_cache

import numpy as np

# period_integral stops doubling its nodes once the integral settles to this
# relative tolerance.
PERIOD_RTOL = 1e-12


def reemit_csv(path) -> str:
    """Parse one of the package's CSVs and re-serialize it cell by cell.

    Numeric cells were written with repr(), so float() -> repr() must
    reproduce them byte for byte; integer and boolean cells pass through
    int() and literal matching.  Used to demonstrate round-trip fidelity.
    """
    text = pathlib.Path(path).read_text()
    out_lines = []
    for idx, line in enumerate(text.splitlines()):
        if idx == 0:
            out_lines.append(line)
            continue
        cells = []
        for cell in line.split(","):
            if cell in ("true", "false"):
                cells.append(cell)
            else:
                try:
                    cells.append(str(int(cell)))
                except ValueError:
                    cells.append(repr(float(cell)))
        out_lines.append(",".join(cells))
    return "\n".join(out_lines) + "\n"


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, elementwise."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], n even.

    Five Newton steps on P_n, from Tricomi's estimate, take the n/2 nodes
    in (-1, 0) to rounding; the others are their mirror images.  This is
    O(n^2), where the companion eigensolve of numpy's leggauss is O(n^3),
    and its end weights are closer to the exact ones.
    """
    k = np.arange(1, n // 2 + 1)
    x = -(1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(5):
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate((x, -x[::-1])), np.concatenate((w, w[::-1]))


@lru_cache(maxsize=16)
def _gauss_nodes(n: int):
    # nodes/weights for [0, pi/2]
    x, w = _gauss_legendre(n)
    return 0.25 * np.pi * (x + 1.0), 0.25 * np.pi * w


def period_integral(f, roots) -> float:
    """Integral over phi in [0, pi/2] of f(h(phi)) / sqrt(h(phi) - h0),
    h(phi) = h1 + (h2-h1) sin^2(phi): the quadrature oracle of the closed forms.

    The substitution absorbs the inverse-square-root singularities of
    dh / sqrt((h-h0)(h-h1)(h2-h)) = 2 dphi / sqrt(h-h0) at both ends of
    [h1, h2], so the period average of f(h) is period_integral(f, roots) /
    period_integral(np.ones_like, roots) and the wavelength is
    4 sqrt(I3/3) period_integral(np.ones_like, roots).  Gauss-Legendre
    nodes are doubled from 64 until the integral changes by at most
    PERIOD_RTOL of the integral of |f| (not of the integral itself, which
    can be exactly zero by cancellation, e.g. the momentum of a wave in its
    zero-mean frame); past 4096 nodes the test fails.  f maps an array of
    depths to an array of the same shape.
    """
    h0, h1, h2 = roots.h0, roots.h1, roots.h2
    prev = None
    n = 64
    while n <= 4096:
        phi, w = _gauss_nodes(n)
        h = h1 + (h2 - h1) * np.sin(phi) ** 2
        weight = w / np.sqrt(h - h0)
        fv = f(h)
        val = float(np.dot(fv, weight))
        if prev is not None and abs(val - prev) <= PERIOD_RTOL * float(np.dot(np.abs(fv), weight)):
            return val
        prev = val
        n *= 2
    raise AssertionError(f"period integral did not converge to rtol={PERIOD_RTOL} within 4096 nodes")
