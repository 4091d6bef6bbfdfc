"""Run one thermoformal job in this fresh process and report what it cost.

    python3 benchmarks/child.py JOB.json

JOB.json holds ``config`` (the CLI job), ``out`` (artifact directory),
``result`` (where to write the report) and ``trace`` (record layer spans).
The report carries the
monotonic clock reading when the job became ready, so the parent can time
set-up from the moment it started this process.  Exits 1 if the job raised.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _environment():
    """Thread and library settings of this process, for the result record."""
    import ctypes
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": None,
        "blas_config": None,
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "THERMOFORMAL_WORKERS"):
        env[var] = os.environ.get(var)
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        threads = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        config = getattr(handle, "scipy_openblas_get_config64_", None)
        if threads is not None and config is not None:
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            env["blas_threads"] = threads()
            env["blas_config"] = config().decode()
    return env


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    report = {}
    code = 0
    try:
        t0 = time.perf_counter()
        from thermoformal import cli
        t1 = time.perf_counter()
        cli.validate(job["config"])
        t2 = time.perf_counter()
        report.update(ready=time.monotonic(), import_s=t1 - t0, validate_s=t2 - t1)
        tracer = None
        if job["trace"]:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        run = cli.run if tracer is None else tracer.wrap("cli.run", cli.run)
        start = time.perf_counter()
        exit_code, _ = run(job["config"], job["out"])
        report["wall_s"] = time.perf_counter() - start
        report["exit_code"] = exit_code
        if tracer is not None:
            tracer.uninstall()
            report["trace"] = tracer.dump()
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["artifact_bytes"] = sum(p.stat().st_size for p in Path(job["out"]).iterdir())
        report["env"] = _environment()
    except Exception:
        report["error"] = traceback.format_exc()
        code = 1
    Path(job["result"]).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
