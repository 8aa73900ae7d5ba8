"""sgnwaves benchmark: one workload, closed loop, one caller in one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its src/.
A run times cold set-up in fresh processes, warms the workload, then
repeats rounds (the next starts only when the previous one has returned)
until --seconds have passed, and checks every round's outputs.  Untraced
times are sampled by the speed probe (speed.py) and reported at its
reference speed.  With --trace 1 the rounds alternate between untraced
and traced, without the probe; the traced rounds give the per-layer
metrics and the difference between the two kinds gives the tracing
overhead.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  Exit code 0 means every
check passed, 1 that one failed, 2 that the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
N_SETUP = 5            # cold set-ups per run; setup_s is their median
MAX_MESSAGES = 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Tally:
    """Running totals over the rounds of one phase."""

    def __init__(self):
        self.times: list[float] = []
        self.scaled: list[float] = []   # the same rounds at the probe's reference speed
        self.work = 0.0
        self.ops = 0
        self.failed = 0
        self.failed_points = 0
        self.messages: list[str] = []
        self.probes: list[dict] = []   # stats of the probes that sampled the rounds

    def mean_time(self) -> float:
        """Mean round time: total timed seconds over rounds."""
        return sum(self.times) / len(self.times)

    def mean_scaled(self) -> float:
        return sum(self.scaled) / len(self.scaled)

    def add(self, dt, scaled, outcome):
        self.times.append(dt)
        self.scaled.append(scaled)
        self.work += outcome.work
        self.ops += outcome.ops
        self.failed += outcome.failed
        self.failed_points += outcome.failed_points
        self.messages.extend(outcome.messages[:max(0, MAX_MESSAGES - len(self.messages))])


def run_rounds(wl, seconds, min_rounds, tracer=None, probe=None) -> list[Tally]:
    """Rounds until `seconds` have passed and each tally has min_rounds.

    With a tracer, rounds alternate between untraced and traced, so that
    drift in machine speed falls on both tallies alike; the hooks are
    installed only around traced rounds.  With a started probe, round
    times exclude probe time and the probe samples only inside rounds;
    a round that runs in a child process is sampled by the child's probe.
    Without one, the rescaled times equal the measured ones.
    """
    import speed
    from workloads import Outcome

    if tracer is not None:
        import tracing
    if probe is None:
        probe = speed.Probe()   # never started: its clock is perf_counter's
    tallies = [Tally(), Tally()] if tracer is not None else [Tally()]
    deadline = perf_counter() + seconds
    while min(len(t.times) for t in tallies) < min_rounds or perf_counter() < deadline:
        tally = min(tallies, key=lambda t: len(t.times))
        traced = tally is not tallies[0]
        restore = tracing.install(tracer) if traced else None
        try:
            tracer_on(tracer, traced)
            active0, scaled0 = probe.active_s, probe.scaled_s
            t0 = perf_counter()
            if not wl.in_child:
                probe.begin()
            try:
                out = wl.run(traced)
            finally:
                probe.end()
                dt = perf_counter() - t0
                tracer_on(tracer, False)
            if wl.in_child:
                scaled = dt
            else:
                dt, scaled = probe.active_s - active0, probe.scaled_s - scaled0
            outcome = wl.check(out)
            if outcome.probe is not None:
                dt, scaled = speed.child_time(dt, outcome.probe)
                tally.probes.append(outcome.probe)
        except Exception as exc:  # a failed round is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            n = wl.ops_per_round
            outcome = Outcome(work=0, ops=n, failed=n, messages=[f"{type(exc).__name__}: {exc}"])
            scaled = dt
        finally:
            if restore is not None:
                restore()
        if traced and outcome.trace is not None:
            tracer.merge(outcome.trace)
        tally.add(dt, scaled, outcome)
    tallies[0].probes.append(probe.stats())
    return tallies


def tracer_on(tracer, on: bool) -> None:
    if tracer is not None:
        tracer.on = on


def pin_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the record stays usable
        blas = "unknown"
    return {"nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "threads": os.environ["OMP_NUM_THREADS"],
            "machine": platform.machine()}


def measure_setup(name, seed, workdir, env):
    """N_SETUP cold processes: import plus input build, timed from spawn to exit.

    Each time is net of the child's probe time and rescaled by its probe.
    """
    import speed

    walls, probes, msgs = [], [], []
    for i in range(N_SETUP):
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "setup", name, str(seed), str(probe_dir)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            msgs.append(f"set-up process failed: {proc.stderr.strip()[-500:]}")
            continue
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(speed.child_time(wall, child["probe"])[1])
        probes.append(child)
    return walls, probes, msgs


def median_of(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(name, summary, traced, untraced, probes) -> dict:
    spans, ctr = summary["spans"], summary["counters"]
    rounds = len(traced.times)

    def per_round(span):
        return spans.get(span, {}).get("total_s", 0.0) / rounds

    def count(span):
        return spans.get(span, {}).get("count", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = count("solver.step")
    points = traced.work if name in ("scan", "single_state") else 0
    imports = {k: median_of([p["imports"][k] for p in probes]) for k in ("numpy", "scipy", "sgnwaves")}
    p99 = 0.0
    if name == "single_state" and len(untraced.times) >= 1000:
        p99 = statistics.quantiles(untraced.times, n=100)[98] * 1e6
    return {
        "solver.hydro_s": (per_round("solver.hydro"), "s"),
        "solver.pressure_s": (per_round("solver.pressure"), "s"),
        "solver.banded_solve_s": (per_round("solver.banded_solve"), "s"),
        "solver.roll_calls_per_step": (ratio(ctr.get("roll_in_step", 0), steps), "count"),
        "solver.anchor_s": (per_round("solver.anchor"), "s"),
        "solver.anchor_ties": (ratio(ctr.get("anchor_ties", 0), count("solver.anchor")), "count"),
        "solver.csv_write_s": (per_round("solver.csv_write"), "s"),
        "solver.csv_bytes": (ctr.get("csv_bytes", 0) / rounds, "bytes"),
        "solver.diagnostics_s": (per_round("solver.diagnostics"), "s"),
        "solver.steps": (steps / rounds, "count"),
        "modulation.state_s": (per_round("modulation.state"), "s"),
        "modulation.assemble_s": (per_round("modulation.assemble"), "s"),
        "modulation.charpoly_s": (per_round("modulation.charpoly"), "s"),
        "modulation.roots_s": (per_round("modulation.roots"), "s"),
        "modulation.resultant_s": (per_round("modulation.resultant"), "s"),
        "modulation.failed_points": (traced.failed_points / rounds, "count"),
        "modulation.single_state_us_p99": (p99, "us"),
        "waves.averages_s": (per_round("waves.averages"), "s"),
        "waves.constants_calls_per_point": (ratio(count("waves.constants"), points), "count"),
        "waves.profile_s": (per_round("waves.profile"), "s"),
        "elliptic.s": (per_round("elliptic"), "s"),
        "elliptic.calls_per_point": (ratio(count("elliptic"), points), "count"),
        "cli.import_s": (sum(imports.values()), "s"),
        "cli.import_numpy_s": (imports["numpy"], "s"),
        "cli.import_scipy_s": (imports["scipy"], "s"),
        "cli.import_sgnwaves_s": (imports["sgnwaves"], "s"),
        "cli.command_s": (per_round("cli.command"), "s"),
        "trace.overhead_s": (traced.mean_time() - untraced.mean_time(), "s"),
        "trace.absent_hooks": (len(summary["absent"]), "count"),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgnwaves" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    nproc = pin_threads()   # before numpy is imported anywhere
    sys.path.insert(0, str(SRC))
    import sgnwaves

    import workloads

    if pathlib.Path(sgnwaves.__file__).resolve().parent != (SRC / "sgnwaves").resolve():
        print(f"error: sgnwaves imported from {sgnwaves.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return bench(args, nproc, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, nproc, workloads, workdir) -> int:
    import speed

    name = args.workload
    env = workloads.child_env()
    setup_walls, probes, messages = measure_setup(name, args.seed, workdir, env)
    wl = workloads.WORKLOADS[name](args.seed, workdir)
    wl.warm()
    summary = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        untraced, traced = phases = run_rounds(wl, args.seconds, 1, tracer)
        summary = tracer.summary()
        metrics = layer_metrics(name, summary, traced, untraced, probes)
    else:
        probe = speed.Probe()
        probe.start()
        try:
            phases = run_rounds(wl, args.seconds, wl.min_rounds, probe=probe)
        finally:
            probe.stop()
        untraced = phases[0]
        rss = resource.getrusage(resource.RUSAGE_CHILDREN if wl.in_child else resource.RUSAGE_SELF)
        metrics = {
            "norm_wall_s": (untraced.mean_scaled(), "s"),
            "setup_s": (median_of(setup_walls), "s"),
            "peak_rss_mb": (rss.ru_maxrss / 1024.0, "MB"),
        }
    messages += wl.finish()
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases) + len(messages)
    for p in phases:
        messages += p.messages
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    env_info = environment(nproc)
    report(args, wl, env_info, result, untraced, messages, summary)
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env_info, "rounds": [len(p.times) for p in phases],
              "messages": messages, "known_defects": wl.known_defects, "result": result,
              "spans": summary}
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args, wl, env_info, result, untraced, messages, summary) -> None:
    """Human-readable lines ahead of the JSON line."""
    import speed

    name = args.workload
    print(f"# perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    times = untraced.times
    print(f"# untraced rounds: {len(times)}, wall_s mean {untraced.mean_time():.6g} s, "
          f"median {statistics.median(times):.6g} s, {wl.work_name} "
          f"{untraced.work / sum(times):.6g} 1/s")
    probe_s = speed.mean_probe_s(untraced.probes)
    if probe_s > 0.0:
        print(f"# speed probe: {sum(p['count'] for p in untraced.probes)} samples, "
              f"mean {probe_s * 1e3:.4g} ms against {speed.REF_S * 1e3:.4g} ms at reference speed")
    for key, m in result["metrics"].items():
        print(f"# {key:34s} {m['value']:.6g} {m['unit']}")
    if name == "single_state" and not args.trace and len(untraced.times) >= 1000:
        q = statistics.quantiles(untraced.times, n=100)
        print(f"# single_state_us_p50 {q[49] * 1e6:.1f} us, single_state_us_p99 {q[98] * 1e6:.1f} us "
              f"over {len(untraced.times)} calls")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"# ops_failed_ratio {ratio:.6g} ({result['failed']}/{result['attempted']})")
    if summary is not None and summary["absent"]:
        print("# absent hooks: " + ", ".join(summary["absent"]))
    for msg in messages[:MAX_MESSAGES]:
        print(f"# FAIL {msg}")
    for msg in wl.known_defects:
        print(f"# KNOWN DEFECT (not counted as failed) {msg}")


if __name__ == "__main__":
    sys.exit(main())
