"""End-to-end tests of the command-line interface.

Every test drives main(argv) directly and inspects exit codes, stdout
lines, and the files left behind; the last one runs `python -m
sgnwaves.cli` in a child process, for the exit code the shell sees.  Numeric cells in the emitted CSVs use
repr(), so a parse -> re-serialize pass must reproduce them byte for
byte; that round trip is asserted here for each artifact kind.
"""

import codecs
import dataclasses
import inspect
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import reemit_csv
from sgnwaves import RootTriple, WaveTrainConfig, run_experiment
from sgnwaves.cli import SIMULATE_KEYS, main

BASE_ARGS = ["--roots", "1,1.5,2", "--g", "10"]
# RootTriple's message for a triple outside the range rule, up to the triple it names
ROOTS_RULE = ("roots must satisfy 0 < h0 < h1 < h2 with gaps of at least 1e-10 * h2, finite I2, "
              "epsilon = I1/(2 I3) and alpha^2 = 0.75 (h2 - h0)/I3 (I1, I2, I3 the Vieta sums), "
              "and a normal float product h0*h1*h2, got ")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_text(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()[0]
    raise AssertionError(f"no line starting with {prefix!r} in:\n{out}")


def stdout_value(out: str, prefix: str) -> float:
    return float(stdout_text(out, prefix))


# --- wave -----------------------------------------------------------------

def test_wave_writes_profile_and_summary(capsys, tmp_path):
    out = tmp_path / "profile.csv"
    code, stdout, _ = run(capsys, ["wave", *BASE_ARGS, "--out", str(out)])
    assert code == 0
    assert abs(stdout_value(stdout, "wavelength L = ") - 7.4163) <= 5e-4
    assert abs(stdout_value(stdout, "phase speed D = ") - 3.1688) <= 5e-4
    assert stdout_value(stdout, "m = ") == pytest.approx(-math.sqrt(30.0), rel=1e-12)
    assert stdout_value(stdout, "i = ") == pytest.approx(32.5, rel=1e-12)
    assert stdout_value(stdout, "epsilon = ") == pytest.approx(0.75, rel=1e-12)
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,h,u"
    assert len(lines) == 513
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(2.0, abs=1e-14)   # crest leads
    assert float(first[2]) == pytest.approx(0.43021, abs=1e-5)
    assert reemit_csv(out) == out.read_text()


def test_wave_rejects_unordered_roots(capsys):
    code, _, err = run(capsys, ["wave", "--roots", "1,2,1.5"])
    assert code == 2
    assert "invalid input" in err


def test_wave_rejects_too_few_samples(capsys):
    code, _, err = run(capsys, ["wave", *BASE_ARGS, "--samples", "2"])
    assert code == 2
    assert "--samples" in err


def test_wave_rejects_malformed_roots(capsys):
    for command in ("wave", "eigen"):
        code, _, err = run(capsys, [command, "--roots", "1,2"])
        assert code == 2
        assert err == "invalid input: --roots: expected three comma-separated depths, got '1,2'\n"


# --- eigen ----------------------------------------------------------------

def eigenvalues_from(stdout: str) -> np.ndarray:
    return np.array([stdout_value(stdout, f"lambda{j} = ") for j in range(1, 5)])


def test_eigen_rest_frame(capsys):
    code, stdout, _ = run(capsys, ["eigen", *BASE_ARGS])
    assert code == 0
    lam = eigenvalues_from(stdout)
    expected = np.array([
        -4.146905508565024, 1.6115979306128627,
        2.0831871789583656, 4.104425314178053,
    ])
    assert np.max(np.abs(lam - expected)) <= 1e-6
    assert "n_positive = 3, n_negative = 1" in stdout
    assert "strictly hyperbolic: yes" in stdout


def test_eigen_galilean_frame_shifts_spectrum(capsys):
    _, rest, _ = run(capsys, ["eigen", *BASE_ARGS])
    code, moved, _ = run(capsys, ["eigen", *BASE_ARGS, "--galilean-U", "2.5"])
    assert code == 0
    assert np.max(np.abs(
        eigenvalues_from(moved) - (eigenvalues_from(rest) + 2.5)
    )) <= 1e-9


def test_eigen_phase_speed_matches_galilean_frame(capsys):
    _, rest, _ = run(capsys, ["eigen", *BASE_ARGS])
    D = stdout_value(rest, "D = ") + 2.5
    code, given_D, _ = run(capsys, ["eigen", *BASE_ARGS, "--D", repr(D)])
    assert code == 0
    _, moved, _ = run(capsys, ["eigen", *BASE_ARGS, "--galilean-U", "2.5"])
    assert stdout_value(given_D, "D = ") == stdout_value(moved, "D = ") == D
    lam, expected = eigenvalues_from(given_D), eigenvalues_from(moved)
    assert np.max(np.abs(lam - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_eigen_depth_scaling_doubles_spectrum(capsys):
    _, small, _ = run(capsys, ["eigen", *BASE_ARGS])
    code, large, _ = run(capsys, ["eigen", "--roots", "4,6,8", "--g", "10"])
    assert code == 0
    assert np.max(np.abs(
        eigenvalues_from(large) - 2.0 * eigenvalues_from(small)
    )) <= 1e-8


def test_eigen_exits_3_on_a_degenerate_pencil(capsys, monkeypatch):
    from sgnwaves import cli
    from sgnwaves.errors import DegeneratePencilError

    def degenerate(system):
        raise DegeneratePencilError("leading charpoly coefficient is negligible")

    monkeypatch.setattr(cli, "characteristic_eigenvalues", degenerate)
    code, stdout, err = run(capsys, ["eigen", *BASE_ARGS])
    assert code == 3
    assert err == "numerical degeneracy: leading charpoly coefficient is negligible\n"
    assert stdout == ""


def test_eigen_rejects_conflicting_frames(capsys):
    code, _, err = run(capsys, ["eigen", *BASE_ARGS, "--D", "1.0",
                                "--galilean-U", "0.0"])
    assert code == 2
    assert "at most one" in err


# --- scan -----------------------------------------------------------------

def test_scan_small_window(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, stdout, err = run(capsys, [
        "scan", "--window", "1,6,0,20", "--grid", "10", "--g", "10",
        "--out", str(out),
    ])
    assert code == 0
    assert "all strictly hyperbolic: yes" in stdout
    text = out.read_text()
    lines = text.splitlines()
    assert len(lines) == 101
    npos = {int(line.split(",")[8]) for line in lines[1:]}
    assert npos == {2, 3}      # both sign patterns inside this window
    assert {line.split(",")[10] for line in lines[1:]} == {"true"}
    # resultant keeps one sign across the window
    signs = {line.split(",")[7].startswith("-") for line in lines[1:]}
    assert len(signs) == 1
    assert reemit_csv(out) == text
    header = lines[0].split(",")
    for tag, column in (("resultant_sign", "resultant"), ("sign_pattern", "n_positive")):
        script = (out.parent / f"{out.stem}_{tag}.gnuplot").read_text()
        assert out.name in script
        # gnuplot counts columns from 1
        assert re.findall(r"column\((\d+)\)", script) == [str(header.index(column) + 1)]


def test_scan_rejects_empty_window(capsys, tmp_path):
    code, _, err = run(capsys, ["scan", "--window", "5,4,0,4",
                                "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "invalid input" in err


def test_scan_rejects_a_window_of_three_numbers(capsys, tmp_path):
    code, _, err = run(capsys, ["scan", "--window", "1,2,3", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert err == "invalid input: --window: needs smin,smax,taumin,taumax, got '1,2,3'\n"
    assert not (tmp_path / "s.csv").exists()
    # a number that does not parse names the flag too, as --roots does
    code, _, err = run(capsys, ["scan", "--window", "1,2,x,4", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert err == "invalid input: --window: could not convert string to float: 'x'\n"
    assert not (tmp_path / "s.csv").exists()


def test_scan_rejects_nonfinite_window(capsys, tmp_path):
    code, _, err = run(capsys, ["scan", "--window", "1,inf,0,1",
                                "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "finite" in err


def test_scan_rejects_a_window_inside_the_margin(capsys, tmp_path):
    # both ranges lie below the SCAN_MARGIN clamp, which would put every grid
    # point outside the window, in descending order
    out = tmp_path / "s.csv"
    code, _, err = run(capsys, ["scan", "--window", "1,1.0005,0,0.0005", "--grid", "3",
                                "--out", str(out)])
    assert code == 2
    assert err.startswith("invalid input: ") and "SCAN_MARGIN" in err
    assert not out.exists()


def test_scan_reports_failed_points(capsys, tmp_path):
    # for s >= 3.3e11 the root gap tau = h2 - h1 <= 1 falls below
    # DEGENERACY_TOL * h2: 12 of the 16 triples are invalid
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, ["scan", "--window", "1,1e12,0,1", "--grid", "4",
                                     "--g", "10", "--out", str(out)])
    assert code == 3
    assert "16 points, 12 failures" in stdout
    failed = [line for line in err.splitlines() if line.startswith("point (")]
    assert len(failed) == 12
    assert all(line.endswith("failed: invalid_roots") for line in failed)
    rows = out.read_text().splitlines()[1:]
    assert sum(row.endswith(",nan,nan,nan,nan,nan,nan,-1,-1,false,false") for row in rows) == 12


# --- simulate ----------------------------------------------------------------

CONFIG = """\
# short demonstration run
roots = 1,1.5,2
g = 10
sign_m = -1
n_waves = 1
amplitude = 0.001
cells_per_wavelength = 64
t_end = 0.5
cfl = 0.45
limiter = mc
"""


def config_with(line):
    """CONFIG with `line` in place of the line that sets the same key (a key may appear once)."""
    key = line.partition("=")[0].strip()
    kept = [ln for ln in CONFIG.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join([*kept, line]) + "\n"


def test_simulate_runs_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out_dir = tmp_path / "out"
    code, stdout, _ = run(capsys, ["simulate", "--config", str(cfg),
                                   "--out-dir", str(out_dir)])
    assert code == 0
    assert "simulated" in stdout
    assert "depth envelope" in stdout
    assert (out_dir / "manifest.txt").is_file()
    assert (out_dir / "diagnostics.csv").is_file()
    for name in ("diagnostics.csv", "field_0000.csv", "portrait_0000.csv"):
        csv = out_dir / name
        assert reemit_csv(csv) == csv.read_text()


def test_simulate_flag_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, ["simulate", "--config", str(cfg),
                              "--out-dir", str(out_dir),
                              "--t-end", "0.25", "--checkpoints", "0.1,0.25"])
    assert code == 0
    manifest = (out_dir / "manifest.txt").read_text()
    assert "t_final = 0.25" in manifest
    assert "checkpoint_times = 0.1;0.25" in manifest


def test_simulate_rerun_into_a_used_directory_writes_a_fresh_runs_files(capsys, tmp_path):
    # the first run's four extra checkpoints go; files of other names stay
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    simulate = ["simulate", "--config", str(cfg), "--t-end", "0.01"]
    assert run(capsys, [*simulate, "--out-dir", str(used),
                        "--checkpoints", "0.002,0.004,0.006,0.008"])[0] == 0
    assert (used / "portrait_0004.csv").is_file()
    kept = {"notes.txt": b"mine", "field_001.csv": b"x", "portrait_0001.csv.bak": b"y"}
    for name, data in kept.items():
        (used / name).write_bytes(data)
    assert run(capsys, [*simulate, "--out-dir", str(used)])[0] == 0
    assert run(capsys, [*simulate, "--out-dir", str(fresh)])[0] == 0
    files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in (used, fresh)]
    assert files[0] == {**files[1], **kept}
    assert sorted(files[1]) == ["diagnostics.csv", "field_0000.csv", "manifest.txt", "portrait_0000.csv"]


def test_wave_eigen_and_simulate_report_one_wave_alike(capsys, tmp_path):
    # one wave type serves every command: each prints its L and D to the last digit
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_with("t_end = 0.01"))
    _, wave, _ = run(capsys, ["wave", *BASE_ARGS, "--out", str(tmp_path / "wave.csv")])
    _, eigen, _ = run(capsys, ["eigen", *BASE_ARGS])
    assert run(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])[0] == 0
    manifest = (tmp_path / "run" / "manifest.txt").read_text()
    D = stdout_text(wave, "phase speed D = ")
    assert D == stdout_text(eigen, "D = ") == stdout_text(manifest, "phase_speed = ")
    assert stdout_text(wave, "wavelength L = ") == stdout_text(manifest, "wavelength = ")


def test_simulate_unset_keys_take_the_library_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("roots = 1,1.5,2\nt_end = 1e-4\n")
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    rows = (out_dir / "manifest.txt").read_text().splitlines()
    manifest = dict(row.split(" = ", 1) for row in rows)
    train = {f.name: f.default for f in dataclasses.fields(WaveTrainConfig) if f.name != "roots"}
    run_params = inspect.signature(run_experiment).parameters
    expected = {**train, "cfl": run_params["cfl"].default, "limiter": run_params["limiter"].default}
    assert {key: manifest[key] for key in expected} == {
        key: value if isinstance(value, str) else repr(value) for key, value in expected.items()
    }


def test_simulate_missing_config(capsys, tmp_path):
    missing = tmp_path / "nope.cfg"
    code, _, err = run(capsys, ["simulate", "--config", str(missing)])
    assert code == 2
    assert str(missing) in err


def test_simulate_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG + "bogus = 3\n")
    code, _, err = run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 2
    assert "bogus" in err


def test_simulate_rejects_a_repeated_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG + "t_end = 0.1\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 2
    assert f"{cfg}:11: key 't_end' was already set on line 8" in err
    assert not out_dir.exists()


def test_simulate_rejects_a_line_without_equals(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# no separator on line 2\nroots 1,1.5,2\nt_end = 0.5\n")
    code, _, err = run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 2
    assert f"{cfg}:2: expected 'key = value', got 'roots 1,1.5,2'" in err


def check_config_is_read_as_utf8(capsys, cfg, bom):
    # a Latin-1 comment is named by file and line, whatever the locale's encoding
    cfg.write_bytes(bom + (CONFIG + "# café\nbogus = 3\n").encode("latin-1"))
    code, _, err = run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 2
    assert err.startswith(f"invalid input: {cfg}:11: 'utf-8' codec can't decode byte 0xe9 in position ")
    cfg.write_bytes(bom + (CONFIG + "# café\nbogus = 3\n").encode("utf-8"))
    code, _, err = run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 2
    assert f"{cfg}:12: unknown key 'bogus'" in err


def test_simulate_reads_its_config_as_utf8(capsys, tmp_path):
    check_config_is_read_as_utf8(capsys, tmp_path / "bad.cfg", b"")


def test_simulate_reads_a_config_with_a_byte_order_mark(capsys, tmp_path):
    # a leading byte-order mark is not part of the first line
    check_config_is_read_as_utf8(capsys, tmp_path / "bad.cfg", codecs.BOM_UTF8)


# each row: a line that replaces the CONFIG line of its key, the flags given,
# and the start of simulate's message
BAD_VALUES = [
    ("g = 10 # gravity", [], "{cfg}:10: key 'g': could not convert string to float: '10 # gravity'"),
    ("checkpoints = 0.05,,0.07", [], "{cfg}:11: key 'checkpoints': could not convert string to float: ''"),
    ("n_waves = 2.5", [], "{cfg}:10: key 'n_waves': invalid literal for int() with base 10: '2.5'"),
    ("roots = 1,2,1.5", [], "{cfg}:10: key 'roots': "),
    ("roots = 1,2", [], "{cfg}:10: key 'roots': expected three comma-separated depths, got '1,2'"),
    ("n_waves = 0", [], "{cfg}:10: key 'n_waves': n_waves must be >= 1, got 0"),
    ("amplitude = 1.5", [], "{cfg}:10: key 'amplitude': amplitude must be in [0, 1), got 1.5"),
    ("cells_per_wavelength = 8", [],
     "{cfg}:10: key 'cells_per_wavelength': cells_per_wavelength must be >= 16, got 8"),
    ("g = 0", [], "{cfg}:10: key 'g': gravity must be finite and positive, got g=0.0"),
    ("g = 1e308", [], "{cfg}:10: key 'g': g*h0*h1*h2 or g*I2 overflows the float range, got g=1e+308"),
    ("roots = 1e-200,2e-200,3e-200", [], "{cfg}:10: key 'roots': roots must satisfy "),
    ("roots = 2e-310,10,20", [], "{cfg}:10: key 'roots': " + ROOTS_RULE + "(2e-310, 10.0, 20.0)"),
    ("roots = 3.8e-301,1e-8,100", [], "{cfg}:10: key 'roots': " + ROOTS_RULE + "(3.8e-301, 1e-08, 100.0)"),
    ("sign_m = 2", [], "{cfg}:10: key 'sign_m': sign_m must be -1 or +1, got 2"),
    ("cfl = 0", [], "{cfg}:10: key 'cfl': cfl must be in (0, 0.9], got 0.0"),
    ("limiter = superbee", [], "{cfg}:10: key 'limiter': unknown limiter 'superbee'; "),
    ("t_end = nan", [], "{cfg}:10: key 't_end': t_end must be positive and finite, got nan"),
    ("checkpoints = 0.6", [],
     "{cfg}:11: key 'checkpoints': checkpoint time 0.6 is outside (0, t_end = 0.5]"),
    ("g = 10", ["--t-end", "1/2"], "--t-end: could not convert string to float: '1/2'"),
    ("g = 10", ["--checkpoints", "0.1;0.2,"], "--checkpoints: could not convert string to float: ''"),
]
BAD_VALUE_IDS = [
    "comment-after-value", "empty-checkpoint", "fractional-int", "unordered-roots",
    "two-roots", "no-waves", "amplitude-out-of-range", "too-few-cells", "zero-g",
    "overflowing-g", "roots-product-underflows", "roots-epsilon-overflows", "roots-alpha-overflows",
    "sign-m-out-of-range", "zero-cfl", "unknown-limiter", "nan-t-end",
    "checkpoint-after-t-end", "t-end-flag", "checkpoints-flag",
]


@pytest.mark.parametrize("line, flags, named", BAD_VALUES, ids=BAD_VALUE_IDS)
def test_simulate_names_where_a_bad_value_was_set(capsys, tmp_path, line, flags, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config_with(line))
    out_dir = tmp_path / "out"
    code, stdout, err = run(capsys, ["simulate", "--config", str(cfg), *flags,
                                     "--out-dir", str(out_dir)])
    assert code == 2
    assert err.startswith("invalid input: " + named.format(cfg=cfg))
    assert err.count("\n") == 1 and stdout == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("row", ["nan-t-end", "checkpoint-after-t-end", "zero-cfl", "unknown-limiter"])
def test_run_experiment_rejects_a_run_value_as_simulate_does(row):
    # the rows of BAD_VALUES whose value parses and run_experiment rejects: the
    # library call on the same file's values raises simulate's message, after
    # its "file:line: key 'k': " prefix
    line, _, named = BAD_VALUES[BAD_VALUE_IDS.index(row)]
    text = dict(ln.split(" = ") for ln in config_with(line).splitlines()[1:])    # after the comment
    kw = {key: SIMULATE_KEYS[key](value) for key, value in text.items()}
    train = {f.name: kw.pop(f.name) for f in dataclasses.fields(WaveTrainConfig)}
    kw["output_times"] = kw.pop("checkpoints", None)
    with pytest.raises(ValueError) as exc:
        run_experiment(WaveTrainConfig(**train), **kw)
    assert str(exc.value).startswith(named.partition("': ")[2])


def test_simulate_checks_the_roots_against_the_files_g(capsys, tmp_path):
    # the train is built from roots and g together: roots whose g I3 overflows
    # at the default g = 9.81 run at the file's smaller g, and an overflow is
    # named by g's line, wherever the file sets g
    cfg = tmp_path / "run.cfg"
    cfg.write_text("roots = 2e102,3e102,4e102\ng = 0.001\nn_waves = 2\n"
                   "cells_per_wavelength = 16\nt_end = 1e49\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0, err
    assert "g = 0.001" in (out_dir / "manifest.txt").read_text().splitlines()
    cfg.write_text("g = 9.81\nroots = 2e102,3e102,4e102\nt_end = 1e49\n")
    code, _, err = run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 2
    assert err.startswith(f"invalid input: {cfg}:1: key 'g': g*h0*h1*h2 or g*I2 overflows the "
                          "float range, got g=9.81")


def test_simulate_checks_checkpoints_against_a_later_t_end(capsys, tmp_path):
    # t_end is read before the other run keys, wherever the file sets it
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("roots = 1,1.5,2\ncheckpoints = 0.6\nt_end = 0.5\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 2
    assert err.startswith(f"invalid input: {cfg}:2: key 'checkpoints': checkpoint time 0.6 is "
                          "outside (0, t_end = 0.5]")
    assert not out_dir.exists()


def test_simulate_checks_the_keys_in_the_order_of_its_table(capsys, tmp_path):
    # of two bad keys, the one that comes first in SIMULATE_KEYS is named, not the first in the file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cfl = 0\nroots = 1,1.5,2\nt_end = 0.5\nn_waves = 0\n")
    code, _, err = run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 2
    assert err == f"invalid input: {cfg}:4: key 'n_waves': n_waves must be >= 1, got 0\n"


# no numpy overflow warning from the hydrostatic stage on the way to the error
def test_simulate_names_a_hydrostatic_overflow(capsys, tmp_path):
    # g h^2/2 itself leaves the float range at this g, although g I3 and g I2
    # do not: the first hydrostatic stage turns h into NaN, which is named as
    # a non-finite state, not as lost positivity or a failed pressure solve
    cfg = tmp_path / "run.cfg"
    cfg.write_text("roots = 1,2,100\ng = 1e305\nn_waves = 1\n"
                   "cells_per_wavelength = 16\nt_end = 1e-170\n")
    code, _, err = run(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 4
    assert err.startswith("solver failure: step 1 from t = 0.0: non-finite state at cell 0: h = nan, ")


def test_simulate_runs_where_only_the_flux_weights_would_overflow(capsys, tmp_path):
    # the HLL flux is a weighted sum with weights in [0, 1], so it leaves the
    # float range only where the flux of a state does; at g = 1e300 products
    # such as s_r F(U_l), about g^1.5 h^2.5, would
    cfg = tmp_path / "run.cfg"
    cfg.write_text("roots = 1,1.5,2\ng = 1e300\nn_waves = 1\n"
                   "cells_per_wavelength = 16\nt_end = 1e-160\n")
    out = tmp_path / "out"
    code, _, err = run(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(out)])
    assert (code, err) == (0, "")
    assert "n_steps = 1\n" in (out / "manifest.txt").read_text()


def test_the_key_table_is_the_trains_fields_then_the_runs():
    train = [f.name for f in dataclasses.fields(WaveTrainConfig)]
    assert list(SIMULATE_KEYS) == [*train, "t_end", "checkpoints", "cfl", "limiter"]


@pytest.mark.parametrize("train", [
    {},
    {"g": 9.5, "sign_m": 1, "n_waves": 2, "amplitude": 0.1 + 0.2, "cells_per_wavelength": 17},
    {"g": 1 / 3, "amplitude": 1e-300},
], ids=["defaults", "every-field", "repeating-digits"])
def test_a_manifests_train_rows_rebuild_its_config(tmp_path, train):
    config = WaveTrainConfig(roots=RootTriple(1.0, 1.5, 2.0 + 2.0 ** -50), **train)
    run_experiment(config, 1e-4, out_dir=tmp_path)
    rows = (tmp_path / "manifest.txt").read_text().splitlines()
    fields = {f.name for f in dataclasses.fields(WaveTrainConfig)}
    rebuilt = {key: SIMULATE_KEYS[key](value)
               for key, _, value in (row.partition(" = ") for row in rows) if key in fields}
    assert WaveTrainConfig(**rebuilt) == config


# no numpy overflow warning on the way to inf
def test_simulate_writes_an_energy_past_the_float_range_as_inf(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("roots = 2e102,3e102,4e102\ng = 1\nn_waves = 2\n"
                   "cells_per_wavelength = 16\nt_end = 1e49\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0, err
    rows = [row.split(",") for row in (out_dir / "diagnostics.csv").read_text().splitlines()[1:]]
    assert rows and all(energy == "inf" for *_, energy in rows)
    assert all(math.isfinite(float(mass)) and math.isfinite(float(momentum))
               for _, mass, momentum, _ in rows)


def test_simulate_exits_4_when_dt_collapses(capsys, tmp_path, monkeypatch):
    from sgnwaves import solver

    monkeypatch.setattr(solver, "_stage", lambda U, *args: (U, 1e-20))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, ["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 4
    assert err.startswith("solver failure: step 1 from t = 0.0 took dt = 1e-20, below")
    assert "n_steps = 0\n" in (out_dir / "manifest.txt").read_text()


def test_simulate_requires_roots_and_t_end(capsys, tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("g = 10\n")
    code, _, err = run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 2


# --- non-finite physics -----------------------------------------------------------

# no numpy RuntimeWarning on the way to the error
@pytest.mark.parametrize("argv,named", [
    (["wave", "--roots", "1,1.5,2", "--g", "nan"], "got g=nan"),
    (["eigen", "--roots", "1,1.5,2", "--g", "nan"], "got g=nan"),
    (["eigen", *BASE_ARGS, "--D", "nan"], "got D=nan"),
    (["eigen", *BASE_ARGS, "--galilean-U", "nan"], "got D=nan"),
    (["simulate"], "got g=nan"),
    # roots whose Vieta constants leave the float range
    (["wave", "--roots", "1e-200,2e-200,3e-200", "--g", "10"], "--roots: roots must satisfy"),
    (["eigen", "--roots", "1e-200,2e-200,3e-200", "--g", "10"], "--roots: roots must satisfy"),
    (["eigen", "--roots", "1e110,2e110,3e110"], "--roots: roots must satisfy"),
    (["wave", "--roots", "2e-310,10,20", "--g", "10"], "--roots: " + ROOTS_RULE + "(2e-310, 10.0, 20.0)"),
    # wave and eigen apply one rule: eigen once printed a false "strictly hyperbolic: no" here
    (["wave", "--roots", "3.8e-301,1e-8,100", "--g", "10"],
     "--roots: " + ROOTS_RULE + "(3.8e-301, 1e-08, 100.0)"),
    (["eigen", "--roots", "3.8e-301,1e-8,100", "--g", "10"],
     "--roots: " + ROOTS_RULE + "(3.8e-301, 1e-08, 100.0)"),
    (["eigen", "--roots", "1,1.5,2", "--g", "1e308"], "got g=1e+308"),
], ids=["wave-g", "eigen-g", "eigen-D", "eigen-galilean-U", "simulate-g", "wave-tiny-roots",
        "eigen-tiny-roots", "eigen-huge-roots", "wave-epsilon-overflows", "wave-alpha-overflows",
        "eigen-alpha-overflows", "eigen-g-overflows"])
def test_nonfinite_gravity_or_phase_speed_is_invalid_input(capsys, tmp_path, argv, named):
    out = tmp_path / "out"
    if argv[0] == "wave":
        argv = [*argv, "--out", str(out)]
    elif argv[0] == "simulate":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_with("g = nan"))
        argv = [*argv, "--config", str(cfg), "--out-dir", str(out)]
    code, stdout, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("invalid input: ") and named in err
    assert stdout == ""
    assert not out.exists()


# no numpy warning on the way to the degeneracy
@pytest.mark.parametrize("argv,named", [
    (["eigen", *BASE_ARGS, "--D", "1e60"],
     "numerical degeneracy: the pencil overflows the float range: charpoly coefficients"),
    (["eigen", "--roots", "1,1.5,2", "--g", "1e300"],
     "numerical degeneracy: the pencil overflows the float range: charpoly coefficients"),
    (["scan", "--grid", "4", "--g", "1e300"], "error: 16/16 points failed"),
], ids=["eigen-D", "eigen-g", "scan-g"])
def test_an_overflowing_pencil_is_numerical_degeneracy(capsys, tmp_path, argv, named):
    if argv[0] == "scan":
        argv = [*argv, "--out", str(tmp_path / "scan.csv")]
    code, _, err = run(capsys, argv)
    assert code == 3
    assert named in err


# --- unwritable outputs -----------------------------------------------------------

@pytest.mark.parametrize("argv, target", [
    (["wave", *BASE_ARGS, "--out"], "dir"),
    (["scan", "--grid", "3", "--g", "10", "--out"], "dir"),
    (["simulate", "--out-dir"], "file"),
], ids=["wave-out-is-a-directory", "scan-out-is-a-directory", "simulate-out-dir-is-a-file"])
def test_an_unwritable_output_is_invalid_input(capsys, tmp_path, argv, target):
    path = tmp_path / "taken"
    if target == "dir":
        path.mkdir()
    else:
        path.write_text("")
    if argv[0] == "simulate":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG)
        argv = ["simulate", "--config", str(cfg), *argv[1:]]
    code, _, err = run(capsys, [*argv, str(path)])
    assert code == 2
    assert err.startswith("invalid input: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_scan_checks_its_output_before_it_scans(capsys, tmp_path, monkeypatch):
    # an unwritable --out must exit 2 before any scan point is computed
    def no_scan(*args, **kwargs):
        raise AssertionError("scan_region ran before the output was checked")

    monkeypatch.setattr("sgnwaves.cli.scan_region", no_scan)
    code, _, err = run(capsys, ["scan", "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("invalid input: ") and str(tmp_path) in err
    code, _, err = run(capsys, ["scan", "--out", str(tmp_path / "missing" / "s.csv")])
    assert code == 2 and not (tmp_path / "missing").exists()


# --- dispatcher ----------------------------------------------------------------

def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_the_module_entry_point_exits_with_the_code_of_main(tmp_path):
    # the child finds sgnwaves through the environment it inherits, as this process did
    for argv, code in ((["eigen", *BASE_ARGS], 0), (["wave", *BASE_ARGS, "--out", str(tmp_path)], 2)):
        done = subprocess.run([sys.executable, "-m", "sgnwaves.cli", *argv], capture_output=True, text=True)
        assert done.returncode == code, done.stderr
