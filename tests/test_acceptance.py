"""Acceptance gate: one test per deliverable guarantee, strictest stated
tolerance, one PASS/FAIL line per criterion on stdout (run with -s to see
them live; pytest -v shows the same verdicts as test outcomes).

Each test is self-contained apart from the shared 50x50 parameter scan,
which several criteria interrogate and which is timed as part of its own
criterion.
"""

import time

import mpmath
import numpy as np
import pytest

import sgnwaves as sw
from conftest import kernel_derivatives, period_integral

mpmath.mp.dps = 30

BASE = sw.RootTriple(1.0, 1.5, 2.0)
G = 10.0


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _best_time_per_call(fn, n_calls=200, batches=3) -> float:
    best = float("inf")
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n_calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / n_calls)
    return best


@pytest.fixture(scope="module")
def scan50():
    t0 = time.perf_counter()
    result = sw.scan_region(1.0, 100.0, 0.0, 100.0, 50, g=G, sign_m=-1)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def test_wavelength_reproduction():
    L = sw.wavelength(BASE)
    per_call = _best_time_per_call(lambda: sw.wavelength(BASE))
    ok = abs(L - 7.4163) <= 5e-4 and per_call < 1e-3
    _report(
        "wavelength reproduction",
        ok,
        f"L = {L!r}, |L - 7.4163| = {abs(L - 7.4163):.2e}, {per_call * 1e6:.1f} us/call",
    )


def test_phase_speed_reproduction():
    D = sw.build_wave(BASE, G, -1).D
    per_call = _best_time_per_call(lambda: sw.build_wave(BASE, G, -1).D)
    ok = abs(D - 3.1688) <= 5e-4 and per_call < 1e-3
    _report(
        "phase speed reproduction",
        ok,
        f"D = {D!r}, |D - 3.1688| = {abs(D - 3.1688):.2e}, {per_call * 1e6:.1f} us/call",
    )


def test_strict_hyperbolicity_scan(scan50):
    result, elapsed = scan50
    c = result.classification
    n_points = result.reason.size
    n_hyperbolic = int(np.count_nonzero((result.reason == 0) & c.all_real & c.distinct))
    ok = (
        n_hyperbolic == n_points == 2500
        and not result.errors
        and result.resultant_sign_constant
        and elapsed < 60.0
    )
    sign = np.sign(c.resultant[0])
    _report(
        "strict hyperbolicity scan",
        ok,
        f"{n_hyperbolic}/{n_points} real+distinct, resultant sign {sign:+.0f} "
        f"constant, {elapsed:.2f} s single-threaded",
    )


def test_sign_region_structure(scan50):
    result, _ = scan50
    grid = result.sign_pattern_grid()
    classes = set(grid.flatten().tolist())
    transitions = [int(np.count_nonzero(np.diff(row))) for row in grid]
    # flipping the mass-flux sign must mirror the whole spectrum; probe a
    # coarse subgrid rather than all 2500 points
    flip_dev = 0.0
    for s in np.linspace(1.5, 90.0, 5):
        for tau in np.linspace(0.5, 90.0, 5):
            roots = sw.RootTriple(1.0, s, s + tau)
            lam_minus = sw.characteristic_eigenvalues(
                sw.assemble_AB(sw.state_at_rest(roots, G, -1))
            ).roots.real
            lam_plus = sw.characteristic_eigenvalues(
                sw.assemble_AB(sw.state_at_rest(roots, G, 1))
            ).roots.real
            dev = np.max(np.abs(np.sort(lam_plus) + np.sort(lam_minus)[::-1]))
            flip_dev = max(flip_dev, float(dev))
    ok = (
        classes == {2, 3}
        and all(t == 1 for t in transitions)
        and flip_dev <= 1e-9
    )
    _report(
        "sign region structure",
        ok,
        f"classes {sorted(classes)}, one transition per fixed-s row "
        f"(min {min(transitions)}, max {max(transitions)}), "
        f"sign-flip mirror deviation {flip_dev:.2e}",
    )


def _subgrid():
    return np.linspace(1.01, 100.0, 20), np.linspace(0.01, 100.0, 20)


def test_average_oracle_equivalence():
    s_vals, tau_vals = _subgrid()
    worst = 0.0
    for s in s_vals:
        for tau in tau_vals:
            roots = sw.RootTriple(1.0, s, s + tau)
            period = period_integral(np.ones_like, roots)
            for closed, quad in (
                (sw.averaged_h(roots), period_integral(lambda h: h, roots) / period),
                (sw.averaged_hinv(roots), period_integral(lambda h: 1.0 / h, roots) / period),
                (sw.wavelength(roots), 4.0 * np.sqrt(roots.h0 * roots.h1 * roots.h2 / 3.0) * period),
            ):
                worst = max(worst, abs(closed - quad) / abs(closed))
    ok = worst <= 1e-9
    _report(
        "average oracle equivalence",
        ok,
        f"max relative closed-form vs quadrature deviation {worst:.2e} "
        f"over a 20x20 (s, tau) subgrid",
    )


def test_jacobian_oracle_equivalence():
    s_vals, tau_vals = _subgrid()
    worst_coeff = 0.0
    worst_matrix = 0.0
    for s in s_vals:
        for tau in tau_vals:
            roots = sw.RootTriple(1.0, s, s + tau)
            step = 1e-7 * roots.h2
            Phi, Psi, Lambda = sw.differential_coefficients(roots)
            for closed, f in (
                (Phi, sw.averaged_h),
                (Psi, sw.averaged_hinv),
                (Lambda, sw.wavelength),
            ):
                for j in range(3):
                    v = [roots.h0, roots.h1, roots.h2]
                    up, dn = list(v), list(v)
                    up[j] += step
                    dn[j] -= step
                    fd = (f(sw.RootTriple(*up)) - f(sw.RootTriple(*dn))) / (2 * step)
                    worst_coeff = max(
                        worst_coeff, abs(closed[j] - fd) / max(1.0, abs(closed[j]))
                    )
            state = sw.state_at_rest(roots, G, -1)
            sys = sw.assemble_AB(state)
            L = sw.wavelength(roots)
            v0 = [state.D, roots.h0, roots.h1, roots.h2]
            A_fd = np.empty((4, 4))
            B_fd = np.empty((4, 4))
            for j in range(4):
                up, dn = list(v0), list(v0)
                up[j] += step
                dn[j] -= step
                d_up, f_up = sw.conserved_vector(
                    sw.ModulationState(D=up[0], h0=up[1], h1=up[2], h2=up[3],
                                       g=G, sign_m=-1)
                )
                d_dn, f_dn = sw.conserved_vector(
                    sw.ModulationState(D=dn[0], h0=dn[1], h1=dn[2], h2=dn[3],
                                       g=G, sign_m=-1)
                )
                A_fd[:, j] = (d_up - d_dn) / (2 * step)
                B_fd[:, j] = (f_up - f_dn) / (2 * step)
            A_fd[0] *= -(L * L)  # wave-phase row is scaled in the assembly
            B_fd[0] *= -(L * L)
            worst_matrix = max(
                worst_matrix,
                float(np.max(np.abs(sys.A - A_fd))) / max(1.0, float(np.max(np.abs(sys.A)))),
                float(np.max(np.abs(sys.B - B_fd))) / max(1.0, float(np.max(np.abs(sys.B)))),
            )
    ok = worst_coeff <= 1e-6 and worst_matrix <= 1e-6
    _report(
        "jacobian oracle equivalence",
        ok,
        f"gradient coefficients vs FD {worst_coeff:.2e}, "
        f"quasilinear matrices vs FD {worst_matrix:.2e} (tol 1e-6)",
    )


def test_averaged_flux_identities(scan50):
    result, _ = scan50
    worst = 0.0
    for roots in (BASE, sw.RootTriple(1.0, 1.2, 3.5), sw.RootTriple(1.0, 4.0, 4.5)):
        state = sw.state_at_rest(roots, G, -1)
        c = sw.constants_from_roots(roots, G, -1)
        D, m = state.D, c.m
        dens, flux = sw.conserved_vector(state)

        def u(h):
            return m / h + D

        def F3p(h):
            return (3.0 / c.I3) * (-c.I2 + 2.0 * c.I1 * h - 3.0 * h * h)

        def p(h):
            # g h^2/2 + (h^2/3) D^2h/Dt^2 with D^2h/Dt^2 = (m^2/h)(h'/h)',
            # h'' = F3'/2 and (h')^2 = F3 along the exact profile
            F3 = sw.oscillation_rhs(h, c)
            return 0.5 * G * h * h + (m * m / 3.0) * (0.5 * F3p(h) - F3 / h)

        def e(h):
            F3 = sw.oscillation_rhs(h, c)
            return 0.5 * u(h) ** 2 + 0.5 * G * h + (m * m) * F3 / (6.0 * h * h)

        pairs = (
            (lambda h: h * u(h), flux[1]),
            (lambda h: h * u(h) ** 2 + p(h), flux[2]),
            (lambda h: h * e(h), dens[3]),
            (lambda h: h * u(h) * e(h) + p(h) * u(h), flux[3]),
        )
        period = period_integral(np.ones_like, roots)
        for f, closed in pairs:
            quad = period_integral(f, roots) / period
            worst = max(worst, abs(quad - closed) / max(1.0, abs(closed)))
    # effective pressure must be positive at every scanned point
    min_peff = float("inf")
    for s in result.s_values:
        for tau in result.tau_values:
            roots = sw.RootTriple(1.0, s, s + tau)
            c = sw.constants_from_roots(roots, G, -1)
            min_peff = min(min_peff, c.i - c.m**2 / sw.averaged_h(roots))
    ok = worst <= 1e-7 and min_peff > 0.0
    _report(
        "averaged flux identities",
        ok,
        f"max quadrature vs closed-form deviation {worst:.2e} (tol 1e-7), "
        f"min effective pressure over scan {min_peff:.4f} > 0",
    )


def test_elliptic_kernel_identities():
    worst_legendre = 0.0
    for k in np.linspace(0.005, 0.995, 199):
        kp = np.sqrt(1.0 - k * k)
        lhs = (
            sw.ellip_E(k) * sw.ellip_K(kp)
            + sw.ellip_E(kp) * sw.ellip_K(k)
            - sw.ellip_K(k) * sw.ellip_K(kp)
        )
        worst_legendre = max(worst_legendre, abs(lhs - np.pi / 2.0))
    worst_deriv = 0.0
    fd_step = 1e-6
    for n in np.linspace(0.05, 0.95, 10):
        for k in np.linspace(0.05, 0.95, 10):
            if abs(n - k * k) <= 1e-3:
                continue  # the Pi identities divide by k^2 - n
            dK, dE, dPn, dPk = kernel_derivatives(n, k)
            fd = (
                (sw.ellip_K(k + fd_step) - sw.ellip_K(k - fd_step)) / (2 * fd_step),
                (sw.ellip_E(k + fd_step) - sw.ellip_E(k - fd_step)) / (2 * fd_step),
                (sw.ellip_Pi(n + fd_step, k) - sw.ellip_Pi(n - fd_step, k)) / (2 * fd_step),
                (sw.ellip_Pi(n, k + fd_step) - sw.ellip_Pi(n, k - fd_step)) / (2 * fd_step),
            )
            for closed, approx in zip((dK, dE, dPn, dPk), fd):
                worst_deriv = max(
                    worst_deriv, abs(closed - approx) / max(1.0, abs(closed))
                )
    ok = worst_legendre <= 1e-12 and worst_deriv <= 1e-7
    _report(
        "elliptic kernel identities",
        ok,
        f"Legendre relation deviation {worst_legendre:.2e} (tol 1e-12), "
        f"derivatives vs FD {worst_deriv:.2e} (tol 1e-7)",
    )


def _advect_one_period(cells_per_wavelength: int, chained: bool = False) -> float:
    """L2 depth error of an unperturbed train after one period, stepped by
    `step` or, chained, by `run_experiment`."""
    cfg = sw.WaveTrainConfig(roots=BASE, g=G, sign_m=-1, n_waves=5,
                             amplitude=0.0, cells_per_wavelength=cells_per_wavelength)
    field = sw.init_wavetrain(cfg)
    wave = sw.build_wave(BASE, G, -1)
    h0 = field.h.copy()
    T = wave.L / abs(wave.D)
    if chained:
        field = sw.run_experiment(cfg, t_end=T, cfl=0.45).checkpoints[-1][1]
    else:
        while field.t < T - 1e-12:
            field = sw.step(field, cfl=0.45, dt_max=T - field.t)
    return float(np.sqrt(np.sum((field.h - h0) ** 2) * field.dx))


def _check_ladder(name: str, chained: bool) -> None:
    ladder = (100, 200, 400)
    errors = [_advect_one_period(cpw, chained) for cpw in ladder]
    slope = -np.polyfit(np.log(ladder), np.log(errors), 1)[0]
    ok = errors[-1] <= 1e-3 and slope >= 2.0
    _report(
        name,
        ok,
        f"L2 errors {['%.3e' % e for e in errors]} at {list(ladder)} "
        f"cells/wavelength, observed order {slope:.4f}",
    )


def test_traveling_wave_preservation():
    _check_ladder("traveling wave preservation", chained=False)


def test_traveling_wave_preservation_of_a_chained_run():
    _check_ladder("traveling wave preservation, chained by run_experiment", chained=True)


def test_modulational_stability_desk_scale():
    a = 1e-3
    cfg = sw.WaveTrainConfig(roots=BASE, g=G, sign_m=-1, n_waves=5,
                             amplitude=a, cells_per_wavelength=400)
    wave = sw.build_wave(BASE, G, -1)
    t_end = 5.0 * wave.L / abs(wave.D)
    res = sw.run_experiment(cfg, t_end=t_end, cfl=0.45, limiter="mc")
    lo = BASE.h1 - 5.0 * a * BASE.h2
    hi = BASE.h2 + 5.0 * a * BASE.h2
    c = wave.constants
    hs = np.linspace(BASE.h1, BASE.h2, 2001)
    curve_scale = float(np.max(c.m**2 * sw.oscillation_rhs(hs, c)))
    residual = sw.portrait_residual(res.checkpoints[-1][1], wave)
    ok = lo <= res.h_min and res.h_max <= hi and residual <= 5e-2 * curve_scale
    _report(
        "modulational stability at desk scale",
        ok,
        f"depth envelope [{res.h_min:.6f}, {res.h_max:.6f}] within "
        f"[{lo:.4f}, {hi:.4f}] over 5 periods, portrait residual "
        f"{residual:.2e} <= {5e-2 * curve_scale:.2e}",
    )


def test_symmetry_suite():
    state = sw.state_at_rest(BASE, G, -1)
    lam0 = sw.characteristic_eigenvalues(sw.assemble_AB(state)).roots.real
    worst_gal = 0.0
    for c in (-2.0, 0.5, 3.0):
        shifted = sw.ModulationState(D=state.D + c, h0=1.0, h1=1.5, h2=2.0,
                                     g=G, sign_m=-1)
        lam = sw.characteristic_eigenvalues(sw.assemble_AB(shifted)).roots.real
        worst_gal = max(worst_gal, float(np.max(np.abs(lam - (lam0 + c)))))
    worst_scale = 0.0
    for alpha in (0.25, 4.0, 9.0):
        roots = sw.RootTriple(alpha * 1.0, alpha * 1.5, alpha * 2.0)
        lam = sw.characteristic_eigenvalues(
            sw.assemble_AB(sw.state_at_rest(roots, G, -1))
        ).roots.real
        dev = np.max(np.abs(lam - np.sqrt(alpha) * lam0)) / max(
            1.0, np.sqrt(alpha) * float(np.max(np.abs(lam0)))
        )
        worst_scale = max(worst_scale, float(dev))
    ok = worst_gal <= 1e-9 and worst_scale <= 1e-8
    _report(
        "symmetry suite",
        ok,
        f"Galilean shift deviation {worst_gal:.2e} (tol 1e-9), "
        f"depth scaling deviation {worst_scale:.2e} (tol 1e-8)",
    )
