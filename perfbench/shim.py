"""Child process of the benchmark: one run of the covrecon command line.

    python perfbench/shim.py MODE RECORD_PATH -- CLI_ARGS...

Runs `covrecon.cli.main(CLI_ARGS)` exactly as `python -m covrecon.cli` would
(covrecon must be importable, e.g. with `src` on PYTHONPATH) and writes a
JSON record to RECORD_PATH when it ends.  The record holds the
CLOCK_MONOTONIC time at which the CLI's config load returned, which ends the
set-up phase, and the exit code.  MODE is one of

  run    plain run; nothing else is added to the process
  setup  stop as soon as the config is loaded, and add an environment stamp
  trace  run with spans at the covrecon layer boundaries (see spans.py)
"""

import json
import os
import sys
import time


class _SetupDone(Exception):
    pass


def _environment():
    import ctypes
    import glob
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0))}


def main():
    if (len(sys.argv) < 4 or sys.argv[1] not in ("run", "setup", "trace")
            or sys.argv[3] != "--"):
        sys.exit("usage: shim.py run|setup|trace RECORD_PATH -- CLI_ARGS...")
    mode, record_path, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    from covrecon import cli

    record = {"mode": mode}
    load_config = cli.config_mod.load_config

    def timed_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        record["setup_end"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return cfg

    cli.config_mod.load_config = timed_load_config
    recorder = None
    if mode == "trace":
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        if recorder is None:
            code = cli.main(argv)
        else:
            code = recorder.call("cli", cli.main, (argv,), {})
    except _SetupDone:
        code = 0
        record["env"] = _environment()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    record["exit_code"] = code
    if recorder is not None:
        record["spans"] = recorder.spans
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
