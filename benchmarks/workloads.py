"""The four benchmark workloads: CLI job configs and their correctness checks.

Each workload is one job config for ``thermoformal.cli.run``.  Together they
put the bulk of the time in different layers:

* ``spectrum-mp4096``: one large dense solve; ``leading_triple`` dominates
  and dense storage sets peak memory.
* ``free-energy-mp1024``: one map, 41 potentials; every grid point redoes
  the same branch inversion and a full dense solve.
* ``response-sink512``: the map changes at every grid point, so geometry
  cannot be shared (the bypass case for geometry reuse); the only workload
  that runs the contraction certificate.
* ``ldp-doubling``: Monte Carlo orbits dominate; operator changes must not
  move it.

The benchmark seed becomes the job ``seed``; only ``ldp-doubling`` consumes
it, the others are deterministic by the bitwise-reproducibility contract.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

NAMES = ("spectrum-mp4096", "free-energy-mp1024", "response-sink512", "ldp-doubling")

_BASE = {
    "spectrum-mp4096": {
        "command": "spectrum",
        "map": {"kind": "builtin", "name": "mp_like"},
        "potential": {"kind": "constant", "params": {"value": 0.0}},
        "params": {"scheme": "ulam", "n": 4096},
    },
    "free-energy-mp1024": {
        "command": "free-energy",
        "map": {"kind": "builtin", "name": "mp_like"},
        "observable": {"kind": "neg_log_deriv", "params": {"scale": 1.0}},
        "params": {"scheme": "collocation", "n": 1024, "t_max": 0.25, "steps": 41},
    },
    "response-sink512": {
        "command": "response",
        "map": {"kind": "builtin", "name": "derived_expanding"},
        "potential": {"kind": "fourier_cos", "params": {"k": 1, "amplitude": 0.1}},
        "params": {"n": 512, "v_min": 0.5, "v_max": 1.5, "v_count": 33},
    },
    "ldp-doubling": {
        "command": "ldp",
        "map": {"kind": "builtin", "name": "doubling"},
        "params": {"scheme": "collocation", "n": 256, "t_max": 2.0, "steps": 41,
                   "s_steps": 201, "a": 0.3, "b": 0.5, "n_list": [20, 40, 80],
                   "samples": 1_000_000},
    },
}

# Small sizes of the same jobs, for smoke tests of the harness itself.
TINY_PARAMS = {
    "spectrum-mp4096": {"n": 64},
    "free-energy-mp1024": {"n": 64, "steps": 5},
    "response-sink512": {"n": 64, "v_count": 5, "guard_resolution": 64},
    "ldp-doubling": {"n": 64, "steps": 11, "s_steps": 21, "n_list": [4, 8],
                     "samples": 2000},
}


def config(name, seed, tiny=False):
    """The job config of workload ``name`` with job seed ``seed``."""
    base = json.loads(json.dumps(_BASE[name]))
    if tiny:
        base["params"].update(TINY_PARAMS[name])
    return {"schema_version": 1, **base, "seed": int(seed)}


def _number(text):
    # Under numpy 2, cli.write_csv writes numpy scalars as their repr, for
    # example "np.float64(0.5)" in spectrum.csv.  That is a defect of the
    # CSV writer, not of the numbers this check is about, so read through it.
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text) if text != "" else math.nan


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_number(v) for v in row] for row in rows[1:]]


def check(name, exit_code, out_dir):
    """Correctness failures of one finished job, as a list of messages.

    ``primitive`` is deliberately not checked: it is a known defect of the
    primitivity test, and asserting either value would hide or freeze it.
    """
    out = Path(out_dir)
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    summary = json.loads((out / "summary.json").read_text())
    res = summary["results"]
    ref = json.loads(REFERENCE_PATH.read_text())
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(msg)

    if name == "spectrum-mp4096":
        need(abs(res["lambda"] - 2.0) < 1e-8, f"|lambda-2| = {abs(res['lambda'] - 2.0):.3e}")
        need(res["invariance_defect_fourier5"] < 1e-3,
             f"invariance defect {res['invariance_defect_fourier5']:.3e} >= 1e-3")
        header, rows = _read_csv(out / "spectrum.csv")
        need(len(rows) == 4096, f"spectrum.csv has {len(rows)} rows, not 4096")
        mu_sum = math.fsum(r[header.index("mu")] for r in rows)
        need(abs(mu_sum - 1.0) < 1e-10, f"mu sums to 1{mu_sum - 1.0:+.3e}")
    elif name == "free-energy-mp1024":
        need(res["verdict"] == "strict", f"verdict {res['verdict']!r}")
        header, rows = _read_csv(out / "free_energy.csv")
        ts = [r[header.index("t")] for r in rows]
        es = [r[header.index("E")] for r in rows]
        need(0.0 in ts and es[ts.index(0.0)] == 0.0, "E(0) is not exactly 0")
        expect = ref[name]["E"]
        need(len(es) == len(expect), f"{len(es)} grid points, expected {len(expect)}")
        worst = max((abs(a - b) for a, b in zip(es, expect)), default=math.inf)
        need(worst < 1e-6, f"E(t) off the reference by {worst:.3e}")
    elif name == "response-sink512":
        need(res["guard_all_passed"] is True, "guard did not pass at every v")
        header, rows = _read_csv(out / "response.csv")
        lams = [r[header.index("lambda")] for r in rows]
        need(not any(math.isnan(x) for x in lams), "NaN lambda in response.csv")
        expect = ref[name]["lambda"]
        need(len(lams) == len(expect), f"{len(lams)} grid points, expected {len(expect)}")
        worst = max((abs(a - b) for a, b in zip(lams, expect)), default=math.inf)
        need(worst < 1e-8, f"lambda(v) off the reference by {worst:.3e}")
    elif name == "ldp-doubling":
        need(res["censored"] is False, "LDP estimate is censored")
        need(abs(res["gap"]) < 0.05, f"|gap| = {abs(res['gap']):.4f} >= 0.05")
    return problems
