"""One `kslab run` in its own process, as the benchmark launches it.

Usage: python3 child.py MODE SRC CONFIG RESULT

MODE is ``run`` (untraced), ``trace`` (with the outside-in tracer) or
``setup`` (stop at the first suite, for timing set-up alone).  The process
writes RESULT, a JSON object with the monotonic time of its first
``run_suite`` call, the environment it ran in and, when traced, its spans.  kslab is imported from the directory SRC.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path


class _SetupDone(BaseException):
    """Raised at the first suite of a ``setup`` run; kslab never catches it."""


def _blas_threads() -> dict[str, int]:
    """Thread counts of the OpenBLAS builds that numpy and scipy loaded."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.with_name(pkg.__name__ + ".libs")
        for lib_path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(lib_path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    out[pkg.__name__] = int(getter())
                    break
    return out


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    mode, src, config, result_path = sys.argv[1:5]
    sys.path.insert(0, src)
    import kslab.cli as cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks: dict[str, float] = {}
    run_suite = cli.run_suite

    def first_suite_mark(*args, **kwargs):
        if "setup_end" not in marks:
            marks["setup_end"] = time.monotonic()
            if mode == "setup":
                raise _SetupDone
        return run_suite(*args, **kwargs)

    cli.run_suite = first_suite_mark
    try:
        exit_code = cli.main(["run", "--config", config])
    except _SetupDone:
        exit_code = 0

    result = {"setup_end": marks.get("setup_end"), "env": _environment()}
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
