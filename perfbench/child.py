"""Fresh-process helpers of the benchmark.

    python3 perfbench/child.py setup <workload> <seed> <workdir>
        cold import of numpy, scipy and sgnwaves, then the workload's input
        build; prints the split times and the speed probe's stats as JSON.
    python3 perfbench/child.py cli <result.json> <trace 0|1> <sgnwaves CLI arguments...>
        runs the CLI's main() and writes the speed probe's stats (trace 0)
        or the tracer's span summary (trace 1) to result.json.

The speed probe (speed.py) needs numpy, so it samples from just after
numpy's import to the end.  PYTHONPATH must point at the checkout's src/.
"""

import json
import pathlib
import sys
from time import perf_counter


def _timed_imports(clock=perf_counter) -> dict:
    t0 = clock()
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    t1 = clock()
    import sgnwaves.cli  # noqa: F401
    t2 = clock()
    return {"scipy": t1 - t0, "sgnwaves": t2 - t1}


def _probe():
    import speed

    probe = speed.Probe()
    probe.start()
    probe.begin()
    return probe


def main(argv) -> int:
    mode = argv[0]
    t0 = perf_counter()
    import numpy  # noqa: F401
    numpy_s = perf_counter() - t0
    if mode == "setup":
        name, seed, workdir = argv[1], int(argv[2]), pathlib.Path(argv[3])
        probe = _probe()
        imports = {"numpy": numpy_s, **_timed_imports(probe.clock)}
        import workloads

        t0 = probe.clock()
        workloads.WORKLOADS[name](seed, workdir)
        build_s = probe.clock() - t0
        probe.stop()
        print(json.dumps({"imports": imports, "build_s": build_s, "probe": probe.stats()}))
        return 0
    if mode == "cli":
        result_path, traced, args = pathlib.Path(argv[1]), argv[2] == "1", argv[3:]
        if not traced:
            probe = _probe()
            import sgnwaves.cli

            try:
                return sgnwaves.cli.main(args)
            finally:
                probe.stop()
                result_path.write_text(json.dumps(probe.stats()))
        imports = {"numpy": numpy_s, **_timed_imports()}
        import sgnwaves.cli
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, tracing.HOOKS + tracing.CLI_HOOKS)
        tracer.on = True
        try:
            rc = sgnwaves.cli.main(args)
        finally:
            tracer.on = False
            summary = tracer.summary()
            summary["imports"] = imports
            result_path.write_text(json.dumps(summary))
        return rc
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
