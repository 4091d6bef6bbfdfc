"""Batch harness: job parsing, dispatch, and reproducible artifacts.

Jobs are single JSON objects with a ``schema_version``.  Every summary
echoes the resolved config (see ``validate``), and re-running that echoed
config reproduces the numeric outputs bitwise: all randomness
flows from the job seed through the per-batch counter splitting rule, and
iteration orders are fixed.

Exit codes: 0 success / certification pass, 1 schema violation, unreadable
config or an ``--out`` directory that cannot be created, 2 certification
fail, 3 certification uncertified (center-value mode), 4 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from copy import copy
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import certify as certify_mod
from . import curves as curves_mod
from . import statistics as stats_mod
from .errors import SchemaError, ThermoformalError
from .maps import builtin_maps, check_keys, is_number, map_from_json, map_to_json, whole_number
from .observables import observable_from_json
from .operator import (MAX_DENSE_N, build_matrix, dominant_class, fourier_testfns,
                       gap_ratio, invariance_defect, leading_triple)

SCHEMA_VERSION = 1

#: Largest ``steps`` (t-grid points), ``s_steps`` (s-grid points),
#: ``v_count`` (v-grid points), ``n_max`` and ``lag_max`` (correlation lags),
#: certification depth (``N``, ``guard_N``) and orbit length (``orbit_n``,
#: ``mc_orbit_n``, the entries of ``n_list``) a job may ask for.
MAX_GRID_STEPS = 10_001
#: Largest Monte Carlo sample count (``samples`` of ``clt`` and ``ldp``,
#: ``mc_samples`` of ``free-energy``) a job may ask for; ``clt`` holds one
#: float per sample and the free-energy check two (S_n and one t * S_n); a
#: running batch holds one block of ``maps.BLOCK`` points per thread.
#: Certification holds ``degree**N * resolution`` cells and a
#: discretization ``degree * n`` points, capped at the same number.
MAX_SAMPLES = 10 ** 8
#: Deepest nesting of objects and lists in a config (and so of specs in specs).
MAX_CONFIG_DEPTH = 32

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_CERTIFY_FAIL = 2
EXIT_UNCERTIFIED = 3
EXIT_COMPUTE = 4

_TOP_KEYS = {"schema_version", "command", "map", "potential", "observable",
             "observables", "params", "seed"}

# Bounds (lo, hi, integer) of the plain-number parameters, see _num.
_REAL = (None, None, False)
_NONNEG = (0.0, None, False)
_RESOLUTION = (16, None, True)
_STEPS = (1, MAX_GRID_STEPS, True)
_GRID = (3, MAX_GRID_STEPS, True)


def _spectral(scheme, n, **more):
    return {"scheme": (scheme, None), "n": (n, (16, MAX_DENSE_N, True)), **more}


def _t_grid(t_max, steps, **more):
    return _spectral("collocation", 512, t_max=(t_max, (1e-9, None, False)),
                     steps=(steps, _GRID), **more)


#: Each command's parameters, name -> (default, bounds): bounds for a plain
#: number, None for a choice or list field, which _check_params checks.  A
#: number whose default is None may also be null.
_PARAMS = {
    "certify": {"N": (1, _STEPS), "gamma": (0.6, _REAL), "resolution": (256, _RESOLUTION),
                "rho": (None, _NONNEG)},
    "spectrum": _spectral("ulam", 1024),
    "correlations": _spectral("ulam", 1024, n_max=(32, _STEPS)),
    "clt": _spectral("ulam", 1024, lag_max=(64, _STEPS), orbit_n=(50, _STEPS),
                     samples=(100_000, (10, MAX_SAMPLES, True))),
    "free-energy": _t_grid(0.5, 41, eps_guard=(None, _NONNEG), mc_t_values=([], None),
                           mc_orbit_n=(30, _STEPS),
                           mc_samples=(100_000, (1, MAX_SAMPLES, True))),
    "rate-function": _t_grid(0.5, 41, s_steps=(101, _GRID)),
    "ldp": _t_grid(2.0, 81, s_steps=(201, _GRID), a=(0.3, _REAL), b=(0.5, _REAL),
                   n_list=([20, 40, 80], None), samples=(1_000_000, (10, MAX_SAMPLES, True))),
    "response": _spectral("collocation", 512, v_min=(0.5, _REAL), v_max=(1.5, _REAL),
                          v_count=(33, (5, MAX_GRID_STEPS, True)), guard_N=(1, _STEPS),
                          guard_gamma=(0.7, _REAL), guard_resolution=(512, _RESOLUTION)),
}
COMMANDS = tuple(_PARAMS)


def _require(cond, msg, path):
    if not cond:
        raise SchemaError(msg, path)


def _num(params, key, lo=None, hi=None, integer=False, path="params"):
    val = params[key]
    where = f"{path}.{key}" if path else key
    _require(is_number(val), f"{key} must be a number", where)
    if integer:
        val = whole_number(val)
        _require(val is not None, f"{key} must be an integer", where)
        params[key] = val                   # 2.0 is taken as 2, not passed on
    if lo is not None:
        _require(val >= lo, f"{key} must be >= {lo}", where)
    if hi is not None:
        _require(val <= hi, f"{key} must be <= {hi}", where)
    return val


def _num_list(params, key, **bounds):
    """Check ``params[key]`` as a list of numbers, entry paths ``params.key[i]``."""
    _require(isinstance(params[key], list), f"{key} must be a list", f"params.{key}")
    for i, val in enumerate(params[key]):
        item = f"{key}[{i}]"
        _num({item: val}, item, **bounds)


def validate(config):
    """Validate a job config and return it resolved: map and params with all
    defaults materialized, potential and observable(s) as given or defaulted."""
    return _parse(config)[0]


def _parse(config):
    """Check a job config and build the objects it names, each once.

    Returns the resolved config (see ``validate``) and a namespace with the
    ``map`` (``family``, v -> map, for ``response``), the ``potential``
    (for ``response`` a function of the member's map) and the
    ``observable`` or the ``g`` and ``psi`` of ``correlations``.
    """
    check_keys(config, _TOP_KEYS, "")
    non_finite = []
    _finite_or_null(config, "", non_finite)
    if non_finite:                      # JSON has no NaN or Infinity
        raise SchemaError("number must be finite", non_finite[0])
    _require(config.get("schema_version") == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}", "schema_version")
    command = config.get("command")
    _require(command in COMMANDS, f"command must be one of {COMMANDS}", "command")

    seed = _num({"seed": config.get("seed", 0)}, "seed", lo=0, integer=True, path="")
    resolved = {"schema_version": SCHEMA_VERSION, "command": command, "seed": seed}
    job = SimpleNamespace()
    if command == "response":
        job.family, m, resolved["map"] = _response_family(
            config.get("map", {"kind": "builtin", "name": "derived_expanding"}))
    else:
        m = job.map = map_from_json(config.get("map", {"kind": "builtin", "name": "doubling"}))
        resolved["map"] = map_to_json(m)

    spec = _PARAMS[command]
    params = config.get("params", {})
    check_keys(params, set(spec), "params")
    p = resolved["params"] = {key: copy(default) for key, (default, _) in spec.items()}
    p.update(params)
    for key, (default, bounds) in spec.items():
        if bounds is not None and not (default is None and p[key] is None):
            _num(p, key, *bounds)
    _check_params(command, p, m)

    phi = resolved["potential"] = config.get(
        "potential", {"kind": "constant", "params": {"value": 0.0}})
    job.potential = observable_from_json(phi, m, "potential")
    if command == "response":
        try:                        # one potential for every member
            job.potential = observable_from_json(phi, None, "potential")
        except SchemaError:         # map-bound: built per member, from the member's map
            job.potential = lambda mv: observable_from_json(phi, mv, "potential")
    cos = {"kind": "fourier_cos", "params": {"k": 1, "amplitude": 1.0}}
    if command in ("clt", "free-energy", "rate-function", "ldp", "response"):
        obs = resolved["observable"] = config.get("observable", cos)
        # response evaluates its observable on the cell centres of every member
        job.observable = observable_from_json(obs, None if command == "response" else m,
                                              "observable")
    if command == "correlations":
        obs = resolved["observables"] = config.get("observables", {"g": cos, "psi": cos})
        check_keys(obs, {"g", "psi"}, "observables")
        _require("g" in obs and "psi" in obs, "need observables.g and observables.psi",
                 "observables")
        job.g = observable_from_json(obs["g"], m, "observables.g")
        job.psi = observable_from_json(obs["psi"], m, "observables.psi")
    return resolved, job


def _response_family(spec):
    """The family of a response job, one member of it and its echoed spec.

    The family takes an array of v (see ``curves.response_scan``):
    derived_expanding is scanned in v and gives a map of those
    members, and any other builtin map is held fixed, one map for every v.
    """
    _require(isinstance(spec, dict) and spec.get("kind", "builtin") == "builtin"
             and isinstance(spec.get("name"), str) and spec["name"] in builtin_maps(),
             "response requires a builtin family name", "map.name")
    params = spec.get("params", {})
    if spec["name"] == "derived_expanding":
        check_keys(params, set(), "map.params")      # v is the scanned parameter
        member = map_from_json(dict(spec, params={"v": 0.0}))
        family = builtin_maps()["derived_expanding"]
    else:
        member = map_from_json(spec)
        family = lambda v: member
    return family, member, {"kind": "builtin", "name": spec["name"], "params": dict(params)}


def _cap(p, key, degree, depth=None):
    """Cap the ``degree * p[key]`` points of a discretization, or the
    ``degree**p[depth] * p[key]`` cells of a certification, at MAX_SAMPLES;
    the map (the depth) is named when even ``p[key] = 16`` passes the cap."""
    what, blame, factor = "degree", "map", degree
    if depth is not None:
        # The exponent is clipped so that a huge depth costs no huge power;
        # for degree >= 2 the clipped power already passes the cap.
        what, blame = f"degree**{depth}", f"params.{depth}"
        factor = degree ** min(p[depth], MAX_SAMPLES.bit_length())
    _require(factor * 16 <= MAX_SAMPLES, f"{what} * 16 must be <= {MAX_SAMPLES}", blame)
    _require(factor * p[key] <= MAX_SAMPLES, f"{what} * {key} must be <= {MAX_SAMPLES}",
             f"params.{key}")


def _check_params(command, p, m):
    """The rules on parameters that are not plain bounds."""
    if "scheme" in p:
        _require(p["scheme"] in ("ulam", "collocation"),
                 "scheme must be ulam or collocation", "params.scheme")
        _cap(p, "n", m.degree)          # each scheme holds degree * n points
    if "steps" in p:
        _require(p["steps"] % 2 == 1, "steps must be odd", "params.steps")
    if command == "certify":
        _require(0.0 < p["gamma"] < 1.0, "gamma must lie in (0,1)", "params.gamma")
        _cap(p, "resolution", m.degree, "N")
    if command == "free-energy":
        _num_list(p, "mc_t_values")
        # the Monte Carlo value at t is compared with the spectral E(t)
        ts = curves_mod.symmetric_grid(p["t_max"], p["steps"])
        for i, t in enumerate(p["mc_t_values"]):
            _require(np.min(np.abs(ts - t)) <= 1e-9 * p["t_max"],
                     "must be a point of the t-grid symmetric_grid(t_max, steps)",
                     f"params.mc_t_values[{i}]")
    if command == "ldp":
        _require(isinstance(p["n_list"], list) and len(p["n_list"]) >= 1,
                 "n_list must be a nonempty list", "params.n_list")
        _num_list(p, "n_list", lo=1, hi=MAX_GRID_STEPS, integer=True)
        seen = set()
        for i, n_i in enumerate(p["n_list"]):    # the rate is fitted through them
            _require(n_i not in seen, "n_list entries must be distinct",
                     f"params.n_list[{i}]")
            seen.add(n_i)
        _require(p["a"] < p["b"], "need a < b", "params.a")
    if command == "response":
        if m.json_params["name"] == "derived_expanding":      # its v lies in [0, 2)
            _num(p, "v_min", lo=0.0)
            _require(p["v_max"] < 2.0, "v_max must be < 2", "params.v_max")
        _require(p["v_min"] < p["v_max"], "need v_min < v_max", "params.v_min")
        _require(0.0 < p["guard_gamma"] < 1.0, "guard_gamma must lie in (0,1)",
                 "params.guard_gamma")
        _cap(p, "guard_resolution", m.degree, "guard_N")


# ---------------------------------------------------------------------------
# Command handlers: (resolved config, built job) -> (exit_code, results, csv_tables)
# ---------------------------------------------------------------------------

def _handler_certify(cfg, job):
    p = cfg["params"]
    rep = certify_mod.check_condition_C(job.map, p["N"], p["gamma"], p["resolution"],
                                        rho=p["rho"])
    results = {
        "passed": rep.passed,
        "mode": rep.mode,
        "rho": rep.rho if math.isfinite(rep.rho) else None,
        "worst_bound": float(rep.bound.max()),
        "failure_cells": [int(i) for i in rep.failures[:64]],
        "failure_count": int(rep.failures.size),
    }
    table = ("certify", ["cell", "raw_bound", "bound", "witness_branch", "witness_preimage"],
             (range(rep.resolution), rep.raw_bound, rep.bound, rep.witness_branch,
              rep.witness_preimage))
    code = (EXIT_CERTIFY_FAIL if not rep.passed else
            EXIT_UNCERTIFIED if rep.mode == certify_mod.MODE_CENTER_ONLY else EXIT_OK)
    return code, results, [table]


def _solve(cfg, job):
    return leading_triple(build_matrix(job.map, job.potential, cfg["params"]["scheme"],
                                       cfg["params"]["n"]))


def _handler_spectrum(cfg, job):
    triple = _solve(cfg, job)
    gap, cls = gap_ratio(triple), dominant_class(triple.matrix, triple.mu)
    results = {
        "lambda": triple.lam,
        "pressure": triple.pressure,
        "gap_ratio": gap.ratio,
        "primitive": cls.primitive,
        "iterations": triple.iterations,
        "invariance_defect_fourier5": invariance_defect(job.map, triple, fourier_testfns(5)),
        "gap_residual": gap.residual,
        "gap_resolved": gap.resolved,
        "class_size": cls.size,
        "class_period": cls.period,
        "mass_outside_class": cls.mass_outside,
    }
    table = ("spectrum", ["x", "h", "nu", "mu"], (triple.grid, triple.h, triple.nu, triple.mu))
    return EXIT_OK, results, [table]


def _handler_correlations(cfg, job):
    triple = _solve(cfg, job)
    series = stats_mod.correlations(triple, job.g.fn, job.psi.fn, cfg["params"]["n_max"])
    gap = gap_ratio(triple)
    results = {
        "tau_hat": series.tau_hat,
        "prefactor": series.prefactor,
        "C0": float(series.values[0]),
        "gap_ratio": gap.ratio,
        "gap_resolved": gap.resolved,
    }
    table = ("correlations", ["lag", "C"], (series.lags, series.values))
    return EXIT_OK, results, [table]


def _handler_clt(cfg, job):
    triple = _solve(cfg, job)
    p = cfg["params"]
    var = stats_mod.clt_variance(triple, job.observable, p["lag_max"])
    results = {
        "sigma2": var.sigma2,
        "tail_bound": var.tail_bound,
        "coboundary": var.coboundary,
        "mean": var.mean,
    }
    tables = []
    if var.coboundary:
        results["ks_statistic"] = None
        results["refused"] = "coboundary: sigma^2 flagged zero, CLT normalization degenerate"
    else:
        rep = stats_mod.clt_empirical(job.map, triple.mu, job.observable.fn, p["orbit_n"],
                                      p["samples"], cfg["seed"], variance=var)
        results["ks_statistic"] = rep.ks_statistic
        tables.append(("clt_qq", ["level", "sample_quantile", "gaussian_quantile"],
                       rep.quantiles.T))
    return EXIT_OK, results, tables


def _free_energy(cfg, job):
    p = cfg["params"]
    return curves_mod.free_energy_curve(
        job.map, job.potential, job.observable, p["t_max"], p["steps"], scheme=p["scheme"],
        n=p["n"], eps_guard=p.get("eps_guard"))


def _handler_free_energy(cfg, job):
    curve = _free_energy(cfg, job)
    p = cfg["params"]
    results = {
        "verdict": curve.verdict,
        "E_at_tmax": float(curve.E[-1]),
        "admissible_at_endpoints": curve.admissible_at_endpoints,
    }
    if p["mc_t_values"]:
        mc = {}
        vals = curves_mod.free_energy_mc(job.map, curve.base.mu, job.observable.fn,
                                         [float(t) for t in p["mc_t_values"]],
                                         p["mc_orbit_n"], p["mc_samples"], cfg["seed"])
        for t, val in zip(p["mc_t_values"], vals):
            i = int(np.argmin(np.abs(curve.t - float(t))))   # validated: t is on the grid
            mc[str(t)] = {"mc": val, "spectral": float(curve.E[i]),
                          "gap": abs(val - float(curve.E[i]))}
        results["mc_check"] = mc
    table = ("free_energy", ["t", "E", "E1", "E2"],
             (curve.t, curve.E, curve.E1,
              [x if not math.isnan(x) else "" for x in curve.E2.tolist()]))
    return EXIT_OK, results, [table]


def _handler_rate_function(cfg, job):
    curve = _free_energy(cfg, job)
    rate = curves_mod.rate_function(curve, cfg["params"]["s_steps"])
    results = {
        "verdict": curve.verdict,
        "s_star": rate.s_star,
        "I_at_s_star": curves_mod.legendre_value(curve, rate.s_star)[0],
        "eq5_residual": rate.eq5_residual,
    }
    table = ("rate_function", ["s", "I", "t_of_s"], (rate.s, rate.I, rate.t_of_s))
    return EXIT_OK, results, [table]


def _handler_ldp(cfg, job):
    curve = _free_energy(cfg, job)
    p = cfg["params"]
    rate = curves_mod.rate_function(curve, p["s_steps"])
    rep = curves_mod.ldp_empirical(job.map, curve.base.mu, job.observable.fn, p["a"], p["b"],
                                   [int(x) for x in p["n_list"]],
                                   p["samples"], cfg["seed"], rate)
    results = {
        "extrapolated_rate": rep.extrapolated,
        "rate_bound": rep.rate_bound,
        "gap": rep.gap,
        "censored": rep.censored,
        "counts": rep.counts.tolist(),
    }
    table = ("ldp", ["n", "count", "rate"], (rep.n_values, rep.counts, rep.rates))
    return EXIT_OK, results, [table]


def _handler_response(cfg, job):
    p = cfg["params"]
    vs = np.linspace(p["v_min"], p["v_max"], p["v_count"])
    scan = curves_mod.response_scan(
        job.family, job.potential, job.observable, vs, scheme=p["scheme"], n=p["n"],
        guard=(p["guard_N"], p["guard_gamma"], p["guard_resolution"]))
    results = {
        "max_adjacent_lambda_jump": float(np.max(np.abs(np.diff(scan.lam)))),
        "richardson_first": scan.richardson_first,
        "richardson_second": scan.richardson_second,
        "guard_all_passed": bool(scan.guard_passed.all()),
    }
    table = ("response", ["v", "lambda", "pressure", "mean_obs", "dlambda"],
             (scan.v, scan.lam, scan.pressure, scan.mean_obs, scan.dlam))
    return EXIT_OK, results, [table]


_HANDLERS = {
    "certify": _handler_certify,
    "spectrum": _handler_spectrum,
    "correlations": _handler_correlations,
    "clt": _handler_clt,
    "free-energy": _handler_free_energy,
    "rate-function": _handler_rate_function,
    "ldp": _handler_ldp,
    "response": _handler_response,
}


def run(config, out_dir=None):
    """Validate and run a job; returns (exit_code, summary dict).

    Artifacts (summary.json plus per-command CSV tables) are written under
    ``out_dir`` when given.  The summary embeds the resolved config; feeding
    that back through ``run`` reproduces all numeric outputs bitwise.
    """
    resolved, job = _parse(config)
    code, results, tables = _HANDLERS[resolved["command"]](resolved, job)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": resolved["command"],
        "exit_code": code,
        "resolved_config": resolved,
        "results": results,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(dumps_summary(summary) + "\n")
        for name, header, columns in tables:
            write_csv(out / f"{name}.csv", header, columns)
    return code, summary


def dumps_summary(summary):
    """Deterministic strict JSON text: sorted keys, repr-exact floats.

    A non-finite result value is written as null and its path (``a.b``,
    ``a[i]``) listed in the sorted ``results["non_finite"]``, present only
    when non-empty.
    """
    non_finite = []
    results = _finite_or_null(summary["results"], "", non_finite)
    if non_finite:
        results["non_finite"] = sorted(non_finite)
    return json.dumps(dict(summary, results=results), sort_keys=True, indent=2,
                      allow_nan=False)


def _finite_or_null(obj, path, non_finite, depth=0):
    """Copy of ``obj`` with each number that is no finite float (NaN, infinite, an int
    past the float range) as None; a value deeper than MAX_CONFIG_DEPTH raises."""
    _require(depth <= MAX_CONFIG_DEPTH, f"nested more than {MAX_CONFIG_DEPTH} deep", path)
    if isinstance(obj, dict):
        return {k: _finite_or_null(v, f"{path}.{k}" if path else str(k), non_finite, depth + 1)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v, f"{path}[{i}]", non_finite, depth + 1)
                for i, v in enumerate(obj)]
    if isinstance(obj, (int, float)) and not abs(obj) <= sys.float_info.max:
        non_finite.append(path)
        return None
    return obj


def write_csv(path, header, columns):
    """Stream ``columns`` (arrays or lists) under a one-line header.  A cell is
    ``str`` of a numpy column's ``tolist`` entry: a float's shortest repr (exact),
    an int's digits or "" for a blank; joined by "," unquoted, lines end in CRLF."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(line % tuple(header))
        fh.writelines(map(line.__mod__, zip(*columns)))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thermoformal",
        description="Thermodynamic-formalism numerics for circle maps")
    sub = parser.add_subparsers(dest="cli_command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON job config")
        sp.add_argument("--out", default=None, help="artifact directory")
    args = parser.parse_args(argv)

    try:        # ValueError: bad JSON or UTF-8, or an int past Python's digit limit
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if args.out is not None:     # made before the job, not after it
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory: {exc}", file=sys.stderr)
            return EXIT_SCHEMA

    try:
        _require(isinstance(config, dict), "config must be an object", "")
        if config.get("command") != args.cli_command:
            raise SchemaError(
                f"config command {config.get('command')!r} does not match "
                f"CLI subcommand {args.cli_command!r}", "command")
        code, summary = run(config, args.out)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ThermoformalError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return EXIT_COMPUTE
    print(dumps_summary(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
