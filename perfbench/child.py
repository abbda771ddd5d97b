"""One benchmark run in a fresh interpreter.

Usage: python3 child.py SPAWN_TIME RESULT_JSON [CONFIG OUT_DIR TRACE]

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is system-wide, so the two clocks agree). Set-up
ends once driftfilter and numpy are imported and the stop list is loaded.
With only two arguments the process measures set-up and exits; otherwise it
runs `driftfilter run --config CONFIG --output-dir OUT_DIR`, optionally
traced, and writes timings, peak RSS and spans to RESULT_JSON.
"""

import sys
import time

from driftfilter import cli, corpus  # imports numpy too

corpus.stopwords()
READY = time.monotonic()

import contextlib  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402  (already loaded by driftfilter)


def _blas_threads():
    """Size of numpy's OpenBLAS thread pool, or None when it cannot be read."""
    import ctypes

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def main(argv):
    spawned, result_path = float(argv[0]), argv[1]
    result = {"setup_s": READY - spawned, "numpy": numpy.__version__,
              "blas_threads": _blas_threads()}
    if len(argv) > 2:
        config, out_dir, traced = argv[2], argv[3], argv[4] == "1"
        tracer = None
        if traced:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        with open(out_dir + ".log", "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                code = cli.main(["run", "--config", config, "--output-dir", out_dir])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails the run's sessions; keep measuring
                traceback.print_exc()
                code = 1
            result["run_s"] = time.perf_counter() - start
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
            result["distinct"] = {k: len(v) for k, v in tracer.distinct.items()}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
