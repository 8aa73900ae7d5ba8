"""Self-tests of the benchmark: each checker must reject corrupted outputs.

    python3 -m pytest perfbench -q

These stay out of the repository's tier-1 suite (pyproject's testpaths).
"""

import json
import pathlib
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with np.load(workloads.REFERENCE) as ref:
        return {k: ref[k] for k in ref.files}


def test_reference_passes_its_own_checks(reference):
    grid = reference["n_positive"].reshape(50, 50)
    assert checks.eigenvalue_failures(reference["lam"], reference["lam"], "ref") == []
    assert checks.sign_count_failures(grid, reference["n_positive"]) == []
    assert checks.scan_failures(True, grid, "ref") == []


def test_flipped_eigenvalue_sign_is_rejected(reference):
    lam = reference["lam"].copy()
    lam[123, 0] = -lam[123, 0]
    assert checks.eigenvalue_failures(lam, reference["lam"], "scan50")
    grid = reference["n_positive"].copy()
    grid[123] = 5 - grid[123]   # the same flip seen as a sign-pattern change
    assert checks.sign_count_failures(grid.reshape(50, 50), reference["n_positive"])


def test_eigenvalue_tolerance_admits_prototype_gap(reference):
    lam = reference["lam"] * (1.0 + 1.3e-8)
    assert checks.eigenvalue_failures(lam, reference["lam"], "scan50") == []
    assert checks.eigenvalue_failures(reference["lam"][:10], reference["lam"], "scan50")


def test_non_finite_eigenvalues_are_rejected(reference):
    lam = reference["lam"].copy()
    lam[7, 2] = np.nan
    assert checks.eigenvalue_failures(lam, reference["lam"], "scan50")


def test_scan_failures_and_sign_structure(reference):
    grid = reference["n_positive"].reshape(50, 50).copy()
    assert checks.scan_failures(False, grid, "scan")
    grid[4, :] = 3   # a row that never changes pattern
    assert checks.sign_structure_failures(grid, "scan")
    grid[4, 0] = -1  # an errored point
    assert any("classes" in m for m in checks.sign_structure_failures(grid, "scan"))


def test_classification_failures():
    assert checks.classification_failures(True, True, "x") == []
    assert checks.classification_failures(False, True, "x")
    assert checks.classification_failures(True, False, "x")


def test_mass_drift_is_rejected():
    mass = np.full(6, 37.08149354602744)
    assert checks.conservation_failures(mass, checks.MASS_RTOL, mass[0], "mass") == []
    mass[-1] *= 1.0 + 1e-10
    assert checks.conservation_failures(mass, checks.MASS_RTOL, mass[0], "mass")


def test_still_water_and_envelope():
    h = np.full(16, 2.0)
    assert checks.still_water_failures(h, np.zeros(16), 2.0) == []
    h[3] += 1e-13
    assert checks.still_water_failures(h, np.zeros(16), 2.0)
    assert checks.envelope_failures(1.49, 2.0, 1.49, 2.01, 0.1, 0.2) == []
    assert checks.envelope_failures(1.48, 2.0, 1.49, 2.01, 0.1, 0.2)
    assert checks.envelope_failures(1.49, 2.0, 1.49, 2.01, 0.3, 0.2)


def test_rotation_mismatch_is_rejected():
    rng = np.random.default_rng(0)
    h, q = rng.random(32), rng.random(32)
    assert checks.rotation_failures(h, q, np.roll(h, 5), np.roll(q, 5), 5) == []
    hb = np.roll(h, 5)
    hb[0] = np.nextafter(hb[0], 2.0)   # one ulp is enough
    assert checks.rotation_failures(h, q, hb, np.roll(q, 5), 5)


def _desk_like_run(tmp_path, name):
    cfg = workloads.sw.WaveTrainConfig(
        roots=workloads.sw.RootTriple(*workloads.ROOTS), g=workloads.G, sign_m=-1,
        n_waves=1, amplitude=1e-3, cells_per_wavelength=32)
    out = tmp_path / name
    workloads.sw.run_experiment(cfg, 0.05, output_times=[0.025], out_dir=out)
    return out


def test_artifacts_missing_file_and_byte_changes(tmp_path):
    a = _desk_like_run(tmp_path, "a")
    b = _desk_like_run(tmp_path, "b")
    expected = workloads.run_files(2)
    assert checks.missing_file_failures([p.name for p in a.iterdir()], expected, "run") == []
    da, db = workloads.artifact_digests(a), workloads.artifact_digests(b)
    assert checks.identical_outputs_failures(da, db, "run") == []   # written_utc differs
    (b / "portrait_0001.csv").unlink()
    assert checks.missing_file_failures([p.name for p in b.iterdir()], expected, "run")
    text = (a / "field_0000.csv").read_text()
    (a / "field_0000.csv").write_text(text.replace("1.", "1.0", 1))
    assert checks.identical_outputs_failures(da, workloads.artifact_digests(a), "run")


def test_diagnostics_mass_parses_written_series(tmp_path):
    out = _desk_like_run(tmp_path, "a")
    mass = checks.diagnostics_mass((out / "diagnostics.csv").read_text())
    assert mass.size == 3
    assert checks.conservation_failures(mass, checks.MASS_RTOL, abs(mass[0]), "mass") == []


def test_parse_scan_csv_round_trip(tmp_path):
    result = workloads.sw.scan_region(*workloads.WINDOW, 3, g=workloads.G)
    path = tmp_path / "scan.csv"
    workloads.sw.write_scan_csv(result, path)
    parsed = checks.parse_scan_csv(path.read_text())
    assert parsed["lam"].shape == (9, 4)
    assert np.array_equal(parsed["n_positive"].reshape(3, 3), result.sign_pattern_grid())


def test_tracer_nests_spans_and_reports_absent_hooks():
    mod = types.ModuleType("sgnwaves._fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules["sgnwaves._fake"] = mod
    try:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, (
            ("sgnwaves._fake", "outer", "fake.outer", None, None),
            ("sgnwaves._fake", "inner", "fake.inner", None, None),
            ("sgnwaves._fake", "gone", "fake.gone", None, None),
            ("sgnwaves._fake", "np.roll", "fake.roll", None, None),
        ))
        tracer.on = True
        assert mod.outer(1) == 4
        tracer.on = False
        mod.outer(1)   # not recorded
        restore()
        assert not hasattr(mod.outer, "__wrapped__")
    finally:
        del sys.modules["sgnwaves._fake"]
    s = tracer.summary()
    assert s["spans"]["fake.outer"]["count"] == 1
    assert s["spans"]["fake.inner"]["count"] == 1
    outer = s["spans"]["fake.outer"]
    assert outer["self_s"] <= outer["total_s"]
    assert s["absent"] == ["sgnwaves._fake.gone", "sgnwaves._fake.np.roll"]


def test_speed_probe_accounts_for_all_active_time():
    from time import perf_counter

    probe = speed.Probe()
    probe.start()
    try:
        t0 = perf_counter()
        probe.begin()
        while probe.count < 5:
            sum(range(1000))
        probe.end()
        wall = perf_counter() - t0
        outside = probe.stats()
        sum(range(200000))   # not between begin() and end(): no probe runs
        assert probe.stats() == outside
    finally:
        probe.stop()
    assert probe.active_s + probe.busy == pytest.approx(wall, abs=1e-3)
    mean = speed.mean_probe_s([probe.stats()])
    # every stretch is rescaled by a probe that ran within it or just before
    assert probe.scaled_s > 0.0
    lo, hi = probe.active_s * speed.REF_S / (4 * mean), probe.active_s * speed.REF_S * 4 / mean
    assert lo < probe.scaled_s < hi
    # a child timed from spawn to exit: its unprobed rest scales by its mean probe
    stats = {"count": 2, "busy_s": 0.004, "active_s": 1.0, "scaled_s": 3.0}
    net, scaled = speed.child_time(1.5, stats)
    assert net == pytest.approx(1.496)
    assert scaled == pytest.approx(3.0 + 0.496 * speed.REF_S / 0.002)


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([*cmd, "--workload", "scan", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
