"""Batch harness: job parsing, dispatch, and reproducible artifacts.

Jobs are single JSON objects with a ``schema_version``.  Every summary
echoes the fully resolved config (all defaults materialized), and re-running
that echoed config reproduces the numeric outputs bitwise: all randomness
flows from the job seed through the per-batch counter splitting rule, and
iteration orders are fixed.

Exit codes: 0 success / certification pass, 1 schema violation, unreadable
config or an ``--out`` directory that cannot be created, 2 certification
fail, 3 certification uncertified (center-value mode), 4 computation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import certify as certify_mod
from . import curves as curves_mod
from . import statistics as stats_mod
from .errors import SchemaError, ThermoformalError
from .maps import builtin_maps, map_from_json, map_to_json
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
#: ``mc_samples`` of ``free-energy``) a job may ask for; ``clt`` and the
#: free-energy check hold one float per sample.  Certification holds
#: ``degree**N * resolution`` cells, capped at the same number.
MAX_SAMPLES = 10 ** 8

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_CERTIFY_FAIL = 2
EXIT_UNCERTIFIED = 3
EXIT_COMPUTE = 4

COMMANDS = ("certify", "spectrum", "correlations", "clt",
            "free-energy", "rate-function", "ldp", "response")

_TOP_KEYS = {"schema_version", "command", "map", "potential", "observable",
             "observables", "params", "seed"}


def _require(cond, msg, path):
    if not cond:
        raise SchemaError(msg, path)


def _check_keys(obj, allowed, path):
    _require(isinstance(obj, dict), "expected an object", path)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r}", f"{path}.{key}" if path else key)


def _get_params(config, defaults, path="params"):
    params = config.get("params", {})
    _check_keys(params, set(defaults), path)
    resolved = dict(defaults)
    resolved.update(params)
    return resolved


def _num(params, key, lo=None, hi=None, integer=False, path="params"):
    val = params[key]
    where = f"{path}.{key}" if path else key
    _require(isinstance(val, (int, float)) and not isinstance(val, bool),
             f"{key} must be a number", where)
    if integer:
        _require(float(val).is_integer(), f"{key} must be an integer", where)
        val = params[key] = int(val)        # 2.0 is taken as 2, not passed on
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
    """Validate a job config and return it with all defaults materialized."""
    _check_keys(config, _TOP_KEYS, "")
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

    if command == "response":
        fam = config.get("map", {"kind": "builtin", "name": "derived_expanding"})
        _check_keys(fam, {"kind", "name", "degree", "params"}, "map")
        _require(fam.get("kind", "builtin") == "builtin" and
                 fam.get("name") in builtin_maps(),
                 "response requires a builtin family name", "map.name")
        fam_params = fam.get("params", {})
        _require(isinstance(fam_params, dict), "expected an object", "map.params")
        if fam["name"] == "derived_expanding":
            _check_keys(fam_params, set(), "map.params")   # v is the scanned parameter
            degree = builtin_maps()[fam["name"]](0.0).degree
        else:
            degree = map_from_json({"kind": "builtin", "name": fam["name"],
                                    "params": fam_params}).degree
        resolved["map"] = {"kind": "builtin", "name": fam["name"], "params": dict(fam_params)}
    else:
        m = map_from_json(config.get("map", {"kind": "builtin", "name": "doubling"}))
        resolved["map"] = map_to_json(m)
        degree = m.degree

    potential = config.get("potential", {"kind": "constant", "params": {"value": 0.0}})
    resolved["potential"] = potential

    defaults = {
        "certify": {"N": 1, "gamma": 0.6, "resolution": 256, "mode": "C", "rho": None},
        "spectrum": {"scheme": "ulam", "n": 1024},
        "correlations": {"scheme": "ulam", "n": 1024, "n_max": 32},
        "clt": {"scheme": "ulam", "n": 1024, "lag_max": 64,
                "orbit_n": 50, "samples": 100_000},
        "free-energy": {"scheme": "collocation", "n": 512, "t_max": 0.5,
                        "steps": 41, "eps_guard": None,
                        "mc_t_values": [], "mc_orbit_n": 30, "mc_samples": 100_000},
        "rate-function": {"scheme": "collocation", "n": 512, "t_max": 0.5,
                          "steps": 41, "s_steps": 101},
        "ldp": {"scheme": "collocation", "n": 512, "t_max": 2.0, "steps": 81,
                "s_steps": 201, "a": 0.3, "b": 0.5,
                "n_list": [20, 40, 80], "samples": 1_000_000},
        "response": {"scheme": "collocation", "n": 512, "v_min": 0.5,
                     "v_max": 1.5, "v_count": 33, "guard_N": 1,
                     "guard_gamma": 0.7, "guard_resolution": 512},
    }
    params = _get_params(config, defaults[command])
    resolved["params"] = params

    need_one = {"clt", "free-energy", "rate-function", "ldp", "response"}
    if command in need_one:
        resolved["observable"] = config.get(
            "observable", {"kind": "fourier_cos", "params": {"k": 1, "amplitude": 1.0}})
    if command == "correlations":
        obs = config.get("observables",
                         {"g": {"kind": "fourier_cos", "params": {"k": 1, "amplitude": 1.0}},
                          "psi": {"kind": "fourier_cos", "params": {"k": 1, "amplitude": 1.0}}})
        _check_keys(obs, {"g", "psi"}, "observables")
        _require("g" in obs and "psi" in obs, "need observables.g and observables.psi",
                 "observables")
        resolved["observables"] = obs

    _validate_params(command, params, resolved["map"]["name"], degree)
    return resolved


def _cap_cells(p, degree, depth, resolution):
    """Cap the ``degree**depth * resolution`` cells of a certification at
    MAX_SAMPLES: ``depth`` is blamed when even resolution 16 passes it."""
    # The exponent is clipped so that a huge depth costs no huge power;
    # for degree >= 2 the clipped power already passes the cap.
    power = degree ** min(p[depth], MAX_SAMPLES.bit_length())
    _require(power * 16 <= MAX_SAMPLES,
             f"degree**{depth} * 16 must be <= {MAX_SAMPLES}", f"params.{depth}")
    _require(power * p[resolution] <= MAX_SAMPLES,
             f"degree**{depth} * {resolution} must be <= {MAX_SAMPLES}", f"params.{resolution}")


def _validate_params(command, params, map_name, degree):
    p = params
    if command == "certify":
        _num(p, "N", lo=1, hi=MAX_GRID_STEPS, integer=True)
        gamma = _num(p, "gamma")
        _require(0.0 < gamma < 1.0, "gamma must lie in (0,1)", "params.gamma")
        _num(p, "resolution", lo=16, integer=True)
        _cap_cells(p, degree, "N", "resolution")
        _require(p["mode"] in ("C", "Cprime"), "mode must be C or Cprime", "params.mode")
        if p["rho"] is not None:
            _num(p, "rho", lo=0.0)
    elif command in ("spectrum", "correlations", "clt", "free-energy",
                     "rate-function", "ldp", "response"):
        _require(p["scheme"] in ("ulam", "collocation"),
                 "scheme must be ulam or collocation", "params.scheme")
        _num(p, "n", lo=16, hi=MAX_DENSE_N, integer=True)
        if command == "correlations":
            _num(p, "n_max", lo=1, hi=MAX_GRID_STEPS, integer=True)
        if command == "clt":
            _num(p, "lag_max", lo=1, hi=MAX_GRID_STEPS, integer=True)
            _num(p, "orbit_n", lo=1, hi=MAX_GRID_STEPS, integer=True)
            _num(p, "samples", lo=10, hi=MAX_SAMPLES, integer=True)
        if command in ("free-energy", "rate-function", "ldp"):
            _num(p, "t_max", lo=1e-9)
            steps = _num(p, "steps", lo=3, hi=MAX_GRID_STEPS, integer=True)
            _require(steps % 2 == 1, "steps must be odd", "params.steps")
        if command == "free-energy":
            if p["eps_guard"] is not None:
                _num(p, "eps_guard", lo=0.0)
            _num_list(p, "mc_t_values")
            # the Monte Carlo value at t is compared with the spectral E(t)
            ts = curves_mod.symmetric_grid(p["t_max"], steps)
            for i, t in enumerate(p["mc_t_values"]):
                _require(np.min(np.abs(ts - t)) <= 1e-9 * p["t_max"],
                         "must be a point of the t-grid symmetric_grid(t_max, steps)",
                         f"params.mc_t_values[{i}]")
            _num(p, "mc_orbit_n", lo=1, hi=MAX_GRID_STEPS, integer=True)
            _num(p, "mc_samples", lo=1, hi=MAX_SAMPLES, integer=True)
        if command in ("rate-function", "ldp"):
            _num(p, "s_steps", lo=3, hi=MAX_GRID_STEPS, integer=True)
        if command == "ldp":
            _require(isinstance(p["n_list"], list) and len(p["n_list"]) >= 1,
                     "n_list must be a nonempty list", "params.n_list")
            _num_list(p, "n_list", lo=1, hi=MAX_GRID_STEPS, integer=True)
            _num(p, "samples", lo=10, hi=MAX_SAMPLES, integer=True)
            _require(_num(p, "a") < _num(p, "b"), "need a < b", "params.a")
        if command == "response":
            _num(p, "v_count", lo=5, hi=MAX_GRID_STEPS, integer=True)
            if map_name == "derived_expanding":      # its v lies in [0, 2)
                _num(p, "v_min", lo=0.0)
                _require(_num(p, "v_max") < 2.0, "v_max must be < 2", "params.v_max")
            _require(_num(p, "v_min") < _num(p, "v_max"), "need v_min < v_max", "params.v_min")
            _num(p, "guard_N", lo=1, hi=MAX_GRID_STEPS, integer=True)
            gamma = _num(p, "guard_gamma")
            _require(0.0 < gamma < 1.0, "guard_gamma must lie in (0,1)", "params.guard_gamma")
            _num(p, "guard_resolution", lo=16, integer=True)
            _cap_cells(p, degree, "guard_N", "guard_resolution")


# ---------------------------------------------------------------------------
# Command handlers (return (exit_code, results, csv_tables))
# ---------------------------------------------------------------------------

def _handler_certify(cfg):
    m = map_from_json(cfg["map"])
    p = cfg["params"]
    fn = certify_mod.check_condition_C if p["mode"] == "C" else certify_mod.check_condition_Cprime
    rep = fn(m, p["N"], p["gamma"], p["resolution"], rho=p["rho"])
    results = {
        "passed": rep.passed,
        "mode": rep.mode,
        "rho": rep.rho if math.isfinite(rep.rho) else None,
        "worst_bound": float(rep.bound.max()),
        "failure_cells": [int(i) for i in rep.failures[:64]],
        "failure_count": int(rep.failures.size),
    }
    table = ("certify", ["cell", "raw_bound", "bound", "witness_branch", "witness_preimage"],
             list(zip(range(rep.resolution), rep.raw_bound.tolist(), rep.bound.tolist(),
                      rep.witness_branch.tolist(), rep.witness_preimage.tolist())))
    if not rep.passed:
        code = EXIT_CERTIFY_FAIL
    elif rep.mode == certify_mod.MODE_CENTER_ONLY:
        code = EXIT_UNCERTIFIED
    else:
        code = EXIT_OK
    return code, results, [table]


def _spectral_objects(cfg):
    m = map_from_json(cfg["map"])
    phi = observable_from_json(cfg["potential"], m, "potential")
    tm = build_matrix(m, phi, cfg["params"]["scheme"], cfg["params"]["n"])
    triple = leading_triple(tm)
    return m, phi, triple


def _handler_spectrum(cfg):
    m, phi, triple = _spectral_objects(cfg)
    gap, cls = gap_ratio(triple), dominant_class(triple.matrix, triple.mu)
    results = {
        "lambda": triple.lam,
        "pressure": triple.pressure,
        "gap_ratio": gap.ratio,
        "primitive": cls.primitive,
        "iterations": triple.iterations,
        "invariance_defect_fourier5": invariance_defect(m, triple, fourier_testfns(5)),
        "gap_residual": gap.residual,
        "gap_resolved": gap.resolved,
        "class_size": cls.size,
        "class_period": cls.period,
        "mass_outside_class": cls.mass_outside,
    }
    table = ("spectrum", ["x", "h", "nu", "mu"],
             list(zip(triple.grid.tolist(), triple.h.tolist(), triple.nu.tolist(),
                      triple.mu.tolist())))
    return EXIT_OK, results, [table]


def _handler_correlations(cfg):
    m, phi, triple = _spectral_objects(cfg)
    g = observable_from_json(cfg["observables"]["g"], m, "observables.g")
    psi = observable_from_json(cfg["observables"]["psi"], m, "observables.psi")
    series = stats_mod.correlations(m, triple, g.fn, psi.fn, cfg["params"]["n_max"])
    gap = gap_ratio(triple)
    results = {
        "tau_hat": series.tau_hat,
        "prefactor": series.prefactor,
        "C0": float(series.values[0]),
        "gap_ratio": gap.ratio,
        "gap_resolved": gap.resolved,
    }
    table = ("correlations", ["lag", "C"],
             list(zip(series.lags.tolist(), series.values.tolist())))
    return EXIT_OK, results, [table]


def _handler_clt(cfg):
    m, phi, triple = _spectral_objects(cfg)
    psi = observable_from_json(cfg["observable"], m, "observable")
    p = cfg["params"]
    var = stats_mod.clt_variance(m, triple, psi.fn, p["lag_max"])
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
        rep = stats_mod.clt_empirical(m, triple.mu, psi.fn, p["orbit_n"], p["samples"],
                                      cfg["seed"], variance=var)
        results["ks_statistic"] = rep.ks_statistic
        tables.append(("clt_qq", ["level", "sample_quantile", "gaussian_quantile"],
                       rep.quantiles.tolist()))
    return EXIT_OK, results, tables


def _curve_from_cfg(cfg):
    m = map_from_json(cfg["map"])
    phi = observable_from_json(cfg["potential"], m, "potential")
    psi = observable_from_json(cfg["observable"], m, "observable")
    p = cfg["params"]
    curve = curves_mod.free_energy_curve(
        m, phi, psi, p["t_max"], p["steps"], scheme=p["scheme"], n=p["n"],
        eps_guard=p.get("eps_guard"))
    return m, phi, psi, curve


def _handler_free_energy(cfg):
    m, phi, psi, curve = _curve_from_cfg(cfg)
    p = cfg["params"]
    results = {
        "verdict": curve.verdict,
        "E_at_tmax": float(curve.E[-1]),
        "admissible_at_endpoints": curve.admissible_at_endpoints,
    }
    if p["mc_t_values"]:
        mc = {}
        for t in p["mc_t_values"]:
            val = curves_mod.free_energy_mc(m, curve.base.mu, psi.fn, float(t),
                                            p["mc_orbit_n"], p["mc_samples"], cfg["seed"])
            i = int(np.argmin(np.abs(curve.t - float(t))))   # validated: t is on the grid
            mc[str(t)] = {"mc": val, "spectral": float(curve.E[i]),
                          "gap": abs(val - float(curve.E[i]))}
        results["mc_check"] = mc
    table = ("free_energy", ["t", "E", "E1", "E2"],
             list(zip(curve.t.tolist(), curve.E.tolist(), curve.E1.tolist(),
                      [x if not math.isnan(x) else "" for x in curve.E2.tolist()])))
    return EXIT_OK, results, [table]


def _handler_rate_function(cfg):
    m, phi, psi, curve = _curve_from_cfg(cfg)
    rate = curves_mod.rate_function(curve, cfg["params"]["s_steps"])
    results = {
        "verdict": curve.verdict,
        "s_star": rate.s_star,
        "I_at_s_star": curves_mod.legendre_value(curve, rate.s_star)[0],
        "eq5_residual": rate.eq5_residual,
    }
    table = ("rate_function", ["s", "I", "t_of_s"],
             list(zip(rate.s.tolist(), rate.I.tolist(), rate.t_of_s.tolist())))
    return EXIT_OK, results, [table]


def _handler_ldp(cfg):
    m, phi, psi, curve = _curve_from_cfg(cfg)
    p = cfg["params"]
    rate = curves_mod.rate_function(curve, p["s_steps"])
    rep = curves_mod.ldp_empirical(m, curve.base.mu, psi.fn, p["a"], p["b"],
                                   [int(x) for x in p["n_list"]],
                                   p["samples"], cfg["seed"], rate)
    results = {
        "extrapolated_rate": rep.extrapolated,
        "rate_bound": rep.rate_bound,
        "gap": rep.gap,
        "censored": rep.censored,
        "counts": rep.counts.tolist(),
    }
    table = ("ldp", ["n", "count", "rate"],
             list(zip(rep.n_values.tolist(), rep.counts.tolist(), rep.rates.tolist())))
    return EXIT_OK, results, [table]


def _handler_response(cfg):
    p = cfg["params"]
    name = cfg["map"]["name"]
    base_params = dict(cfg["map"].get("params", {}))
    ctor = builtin_maps()[name]

    if name == "derived_expanding":
        family = lambda v: ctor(v=v)
    else:
        fixed = ctor(**base_params)
        family = lambda v: fixed
    obs = observable_from_json(cfg["observable"], None, "observable")
    phi_cfg = cfg["potential"]
    if phi_cfg.get("kind") in ("neg_log_deriv", "coboundary"):
        phi = lambda mv: observable_from_json(phi_cfg, mv, "potential")
    else:
        phi = observable_from_json(phi_cfg, None, "potential")
    vs = np.linspace(p["v_min"], p["v_max"], p["v_count"])
    scan = curves_mod.response_scan(
        family, phi, obs.fn, vs, scheme=p["scheme"], n=p["n"],
        guard=(p["guard_N"], p["guard_gamma"], p["guard_resolution"]))
    results = {
        "max_adjacent_lambda_jump": float(np.max(np.abs(np.diff(scan.lam)))),
        "richardson_first": scan.richardson_first,
        "richardson_second": scan.richardson_second,
        "guard_all_passed": bool(scan.guard_passed.all()),
    }
    table = ("response", ["v", "lambda", "pressure", "mean_obs", "dlambda"],
             list(zip(scan.v.tolist(), scan.lam.tolist(), scan.pressure.tolist(),
                      scan.mean_obs.tolist(), scan.dlam.tolist())))
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
    resolved = validate(config)
    code, results, tables = _HANDLERS[resolved["command"]](resolved)
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
        for name, header, rows in tables:
            write_csv(out / f"{name}.csv", header, rows)
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
                      allow_nan=False, default=_json_default)


def _finite_or_null(obj, path, non_finite):
    """Copy of ``obj`` with each non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v, f"{path}.{k}" if path else str(k), non_finite)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v, f"{path}[{i}]", non_finite) for i, v in enumerate(obj)]
    if isinstance(obj, float) and not math.isfinite(obj):
        non_finite.append(path)
        return None
    return obj


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_csv(path, header, rows):
    """One-line header, fixed column order.  Cells are Python scalars, and
    csv writes a float as its ``repr``, which round-trips exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
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
