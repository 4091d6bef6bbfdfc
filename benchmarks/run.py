"""Pipeline benchmark: time one workload of thermoformal CLI jobs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports the
package from the checkout's ``src/``.  Workloads are listed in
``workloads.py``; ``--workload all`` measures each in turn and reports
each as below.

Each job runs in a fresh child process, one at a time (a closed loop with a
single client), so set-up time and peak memory are per job.  The driver
runs three jobs, then starts more while they should end within
``--seconds``, checks every job's outputs and prints each metric by name
with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
time of ``cli.run``; the highest percentile with ten samples beyond it is
printed when a run has more than ten), ``setup_s`` (median time from process
start to a validated job), ``peak_rss_mb`` and ``pass_rate`` (1 - fail
rate; a metric may not read 0, so the fail rate is not one).  With
``--trace 1`` untraced and traced jobs alternate; the metrics are the
per-layer ones from the traced jobs (see ``layertrace.py``), each traced
``summary.json`` must equal the untraced one byte for byte, and the tracing
overhead is printed.

Children run with ``THERMOFORMAL_WORKERS``, ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` unset: one worker and BLAS's default threading, so two
commits compare under the same settings.  The settings each job saw are
recorded in ``.bench_out/<workload>/result.json`` with all samples.
Exits 0 when every job passed its check, 1 when a check failed and 2 when
the checkout has no sources to benchmark.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# Jobs per run, whatever --seconds says: the medians of wall and set-up
# time need a few samples even for the longest job.
MIN_JOBS = 3
# Every run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}


def child_env():
    env = dict(os.environ)
    for var in ("THERMOFORMAL_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Driver:
    """Starts one child at a time and keeps every sample it reports."""

    def __init__(self, config, work, check):
        self.config = config
        self.work = work
        self.check = check          # (exit_code, out_dir) -> list of problems
        self.env = child_env()
        self.started = time.monotonic()
        self.count = 0

    def run_child(self, trace=False):
        """One fresh process; returns its report plus set-up time and problems."""
        self.count += 1
        tag = f"job{self.count:03d}"
        out, result = self.work / tag, self.work / f"{tag}.result.json"
        job_path = self.work / f"{tag}.job.json"
        job_path.write_text(json.dumps({"config": self.config, "out": str(out),
                                        "result": str(result), "trace": trace}))
        left = RUN_BUDGET_S - (time.monotonic() - self.started)
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(job_path)], cwd=ROOT,
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=max(left, 1.0))
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            returncode, stderr = None, f"killed after {left:.0f} s"
        rep = json.loads(result.read_text()) if result.is_file() else {}
        rep.update(tag=tag, traced=trace, returncode=returncode)
        if "ready" in rep:
            rep["setup_s"] = rep["ready"] - t0
        problems = []
        if returncode != 0 or "error" in rep:
            problems.append(f"child exit {returncode}: {rep.get('error') or stderr}".strip())
        else:
            problems += self.check(rep["exit_code"], out)
            if (out / "summary.json").is_file():
                rep["summary"] = (out / "summary.json").read_text()
        rep["problems"] = problems
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def elapsed(self):
        return time.monotonic() - self.started


def tail_text(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"tail n/a (n={n}, needs > 10)"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f}"


def measure(driver, seconds, trace):
    """Run jobs for ``seconds``; returns (jobs, set-up samples).

    Runs ``MIN_JOBS`` jobs, then starts another only if it should end in
    time, judged by the last one's duration, so a run lasts about
    ``seconds`` unless three jobs take longer.
    """
    jobs = []
    last = 0.0
    while len(jobs) < MIN_JOBS or driver.elapsed() + last <= seconds:
        begin = driver.elapsed()
        jobs.append(driver.run_child())
        if trace:
            jobs.append(driver.run_child(trace=True))
        last = driver.elapsed() - begin
        if driver.elapsed() + last > RUN_BUDGET_S or "wall_s" not in jobs[-1]:
            break
    return jobs, [j["setup_s"] for j in jobs if "setup_s" in j]


def end_to_end(jobs, setups):
    walls = [j["wall_s"] for j in jobs if "wall_s" in j]
    rss = [j["peak_rss_kb"] / 1024.0 for j in jobs if "peak_rss_kb" in j]
    passed = sum(1 for j in jobs if not j["problems"])
    if not (walls and setups and rss):
        return None, []
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "pass_rate": passed / len(jobs),
    }
    lines = [
        f"wall_s       {metrics['wall_s']:.4f} s   median of {len(walls)}; {tail_text(walls)}",
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setups)}; {tail_text(setups)}",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  median of {len(rss)}",
        f"pass_rate    {metrics['pass_rate']:.4f}     fail_rate {len(jobs) - passed}/{len(jobs)}",
    ]
    return metrics, lines


def per_layer(jobs):
    """Per-layer metrics (low median over the traced jobs), plus printed lines."""
    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    # A traced job must write exactly the bytes its untraced twin wrote.
    for a, b in zip(plain, traced):
        if "summary" in a and "summary" in b and a["summary"] != b["summary"]:
            b["problems"].append("traced summary.json differs from the untraced one")
    rows = [layertrace.layer_metrics(j["trace"], j["import_s"], j["validate_s"],
                                     j["artifact_bytes"])
            for j in traced if "trace" in j]
    if not rows:
        return None, []
    # median_low keeps counts whole: every value is one a traced job produced.
    metrics = {k: statistics.median_low(r[k] for r in rows) for k in layertrace.METRICS}
    wall_plain = [j["wall_s"] for j in plain if "wall_s" in j]
    wall_traced = statistics.median(j["wall_s"] for j in traced if "wall_s" in j)
    own = [layertrace.self_times(j["trace"]["spans"]) for j in traced if "trace" in j]
    own = {k: statistics.median(o[k] for o in own) for k in set().union(*own)}
    lines = []
    if wall_plain:
        lines.append(f"trace overhead  traced/untraced wall_s = {wall_traced:.4f}/"
                     f"{statistics.median(wall_plain):.4f} = "
                     f"{wall_traced / statistics.median(wall_plain):.4f}"
                     f"  (medians of {len(traced)} and {len(wall_plain)})")
    lines.append("self time per layer, median over traced jobs:")
    for k in sorted(own, key=own.get, reverse=True):
        lines.append(f"  {k:26s} {own[k]:10.4f} s  {100.0 * own[k] / wall_traced:5.1f}% of traced wall_s")
    for k, unit in layertrace.METRICS.items():
        lines.append(f"{k:28s} {metrics[k]:.6g} {unit}")
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "thermoformal" / "cli.py").is_file():
        print(f"error: no thermoformal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    return max([run_workload(name, args.seed, args.seconds, bool(args.trace))
                for name in names])


def run_workload(name, seed, seconds, trace):
    """Measure one workload, print its report; returns the exit status."""
    work = ROOT / ".bench_out" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    driver = Driver(workloads.config(name, seed), work, functools.partial(workloads.check, name))
    jobs, setups = measure(driver, seconds, trace)
    if trace:
        metrics, lines = per_layer(jobs)
        units = layertrace.METRICS
    else:
        metrics, lines = end_to_end(jobs, setups)
        units = END_TO_END

    env = dict(next((j["env"] for j in jobs if "env" in j), {}), commit=_commit())
    failed = [j for j in jobs if j["problems"]]
    print(f"workload {name}  seed {seed}  jobs {len(jobs)}"
          f"  (closed loop, 1 client, one fresh process per job)")
    print("env " + json.dumps(env, sort_keys=True))
    for j in failed:
        print(f"FAILED {j['tag']}: " + "; ".join(j["problems"]))
    for line in lines:
        print(line)
    (work / "result.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
         "metrics": metrics, "setup_samples": setups,
         "jobs": [{k: v for k, v in j.items() if k not in ("summary", "trace")} for j in jobs]},
        indent=1))
    if metrics is None:
        print("error: no job produced measurements", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }), flush=True)
    return 0 if not failed else 1


def _commit():
    """The checked-out commit, when the checkout is a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


if __name__ == "__main__":
    sys.exit(main())
