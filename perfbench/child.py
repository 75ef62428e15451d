"""One timed `sah` run in a fresh interpreter, as `sah compute` would do it.

    python3 perfbench/child.py --src SRC --input FILE --options JSON \
        --stage setup|solve|trace [--env]

The parent records the monotonic clock just before spawning this process;
`t_parsed` is the same clock once the input is parsed, so set-up time is
interpreter start, `import sah` and `parse_system`.  A `solve` or `trace`
run then calls `homology_algorithm`, serializes the result and exits with
the code `sah compute` would return (0 certified, 2 uncertified).  Its
report is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _environment() -> dict:
    """Interpreter, numpy and BLAS of this process."""
    import ctypes
    import glob
    import platform

    import numpy as np

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(),
           "blas_threads_env": {k: os.environ[k] for k in (
               "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    return env


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--options", required=True)
    ap.add_argument("--stage", choices=("setup", "solve", "trace"),
                    required=True)
    ap.add_argument("--env", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import sah
    from sah.pipeline import RunOptions

    pipeline = sys.modules["sah.pipeline"]
    if not os.path.realpath(sah.__file__).startswith(src + os.sep):
        print(f"error: imported sah from {sah.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if args.stage == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import LayerTrace
        tracer = LayerTrace()
        tracer.install()
        tracer.enter("pipeline.parse")
    system = pipeline.parse_system(args.input)
    if tracer is not None:
        tracer.exit()
    report = {"t_parsed": time.monotonic()}
    if args.env:
        report["env"] = _environment()
    if args.stage == "setup":
        print(json.dumps(report))
        return 0

    opts = RunOptions(**json.loads(args.options))
    if tracer is not None:
        tracer.enter("pipeline")
    t0 = time.perf_counter()
    result = pipeline.homology_algorithm(system, opts)
    solve_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.exit()
        tracer.restore()
        report["layers"] = tracer.metrics()
    report["solve_s"] = solve_s
    report["document"] = pipeline.serialize_result(result)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0 if result.certified else 2


if __name__ == "__main__":
    sys.exit(main())
