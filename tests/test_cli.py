import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermoformal import cli
from thermoformal.errors import SchemaError


SINK = {"kind": "builtin", "name": "derived_expanding"}
POLY2 = {"kind": "piecewise_poly", "params": {"breakpoints": [0.0, 1.0],
                                             "coefficients": [[0.0, 2.0]]}}


def job(command, **kw):
    base = {"schema_version": 1, "command": command}
    base.update(kw)
    return base


class TestValidation:
    def test_unknown_top_key(self):
        with pytest.raises(SchemaError) as exc:
            cli.validate(job("spectrum", bogus=1))
        assert "bogus" in str(exc.value)

    def test_unknown_param_key(self):
        with pytest.raises(SchemaError) as exc:
            cli.validate(job("spectrum", params={"m": 3}))
        assert "params.m" in str(exc.value)

    def test_bad_schema_version(self):
        with pytest.raises(SchemaError):
            cli.validate({"schema_version": 2, "command": "spectrum"})

    def test_bad_command(self):
        with pytest.raises(SchemaError):
            cli.validate(job("eigenstuff"))

    def test_defaults_materialized(self):
        resolved = cli.validate(job("spectrum"))
        assert resolved["params"] == {"scheme": "ulam", "n": 1024}
        assert resolved["map"]["name"] == "doubling"
        assert resolved["seed"] == 0

    def test_roundtrip_lossless(self):
        resolved = cli.validate(job("clt", seed=7, params={"n": 256, "samples": 1000}))
        again = cli.validate(resolved)
        assert again == resolved

    def test_integral_floats_become_integers(self):
        resolved = cli.validate(job("free-energy", params={"n": 64.0, "steps": 5.0,
                                                           "mc_orbit_n": 3.0}))
        p = resolved["params"]
        assert (p["n"], p["steps"], p["mc_orbit_n"]) == (64, 5, 3)
        assert all(type(p[k]) is int for k in ("n", "steps", "mc_orbit_n"))

    @pytest.mark.parametrize("command, key", [("free-energy", "steps"),
                                              ("rate-function", "steps"), ("ldp", "steps"),
                                              ("rate-function", "s_steps"), ("ldp", "s_steps")])
    def test_grid_sizes_capped(self, command, key):
        with pytest.raises(SchemaError) as exc:
            cli.validate(job(command, params={key: 10**12 + 1}))
        assert exc.value.path == f"params.{key}"
        resolved = cli.validate(job(command, params={key: cli.MAX_GRID_STEPS}))
        assert resolved["params"][key] == cli.MAX_GRID_STEPS

    def test_gamma_range_checked(self):
        with pytest.raises(SchemaError):
            cli.validate(job("certify", params={"gamma": 1.5}))


class TestRun:
    def test_spectrum_doubling(self, tmp_path):
        code, summary = cli.run(job("spectrum", params={"n": 256}), tmp_path)
        assert code == cli.EXIT_OK
        assert summary["results"]["lambda"] == pytest.approx(2.0, abs=1e-10)
        assert summary["results"]["pressure"] == pytest.approx(np.log(2.0), abs=1e-10)
        assert (tmp_path / "summary.json").exists()
        rows = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        assert rows[0] == "x,h,nu,mu"
        assert len(rows) == 257

    def test_certify_pass_and_fail(self):
        code, summary = cli.run(job(
            "certify", map={"kind": "builtin", "name": "doubling"},
            params={"N": 1, "gamma": 0.6, "resolution": 64}))
        assert code == cli.EXIT_OK and summary["results"]["passed"]

        code, summary = cli.run(job(
            "certify", map={"kind": "builtin", "name": "rotation"},
            params={"N": 2, "gamma": 0.9, "resolution": 64}))
        assert code == cli.EXIT_CERTIFY_FAIL and not summary["results"]["passed"]

    def test_certify_overflowing_inflation_fails_every_cell(self, tmp_path, capsys):
        # exp(N * rho / resolution) overflows: the inflation is infinite
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(job("certify", params={"resolution": 64, "rho": 1e300})))
        code = cli.main(["certify", "--config", str(cfg_path)])
        out = capsys.readouterr()
        assert code == cli.EXIT_CERTIFY_FAIL and "Traceback" not in out.err
        results = json.loads(out.out)["results"]
        assert results["failure_count"] == 64 and results["rho"] == 1e300
        assert results["worst_bound"] is None and "worst_bound" in results["non_finite"]

    def test_certify_uncertified_mode(self):
        # Hölder-only lift: no modulus available, center-value mode
        code, summary = cli.run(job(
            "certify",
            map={"kind": "piecewise_poly", "name": "poly2", "degree": 2,
                 "params": {"breakpoints": [0.0, 1.0], "coefficients": [[0.0, 2.0]],
                            "smoothness": "holder"}},
            params={"N": 1, "gamma": 0.6, "resolution": 32}))
        assert summary["results"]["mode"] == "center_only"
        assert code == cli.EXIT_UNCERTIFIED

    def test_clt_coboundary_refusal_reported(self):
        cfg = job("clt",
                  observable={"kind": "coboundary",
                              "params": {"u": {"kind": "fourier_cos",
                                               "params": {"k": 1, "amplitude": 1.0}}}},
                  params={"n": 4096, "samples": 1000, "orbit_n": 10})
        code, summary = cli.run(cfg)
        assert code == cli.EXIT_OK
        assert summary["results"]["coboundary"]
        assert summary["results"]["ks_statistic"] is None

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        cli.run(job("spectrum", params={"n": 64}), tmp_path)
        cli.run(job("certify", params={"resolution": 16}), tmp_path)
        cli.run(job("clt", params={"n": 64, "samples": 100, "orbit_n": 5}), tmp_path)
        for name in ("spectrum", "certify", "clt_qq"):
            rows = (tmp_path / f"{name}.csv").read_text().strip().split("\n")[1:]
            assert rows
            for cell in ",".join(rows).split(","):
                float(cell)

    def test_ldp_without_hits_writes_strict_json(self, tmp_path):
        # no orbit lands in [a, b]: the extrapolated rate and the gap are -inf
        cfg = job("ldp", params={"a": 0.95, "b": 0.99, "n": 64, "n_list": [20, 40],
                                 "samples": 2000})
        cli.run(cfg, tmp_path)

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        results = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=reject)["results"]
        assert results["non_finite"] == ["extrapolated_rate", "gap"]
        assert results["extrapolated_rate"] is None and results["gap"] is None
        assert results["counts"] == [0, 0]

    def test_non_finite_paths_are_listed(self):
        inf = float("inf")
        text = cli.dumps_summary({"results": {"a": float("nan"), "b": [1.0, -inf],
                                              "c": {"d": inf, "e": 2.0}}})
        assert json.loads(text)["results"] == {
            "a": None, "b": [1.0, None], "c": {"d": None, "e": 2.0},
            "non_finite": ["a", "b[1]", "c.d"]}

    def test_finite_summary_has_no_non_finite_key(self):
        _, summary = cli.run(job("spectrum", params={"n": 64}))
        assert "non_finite" not in json.loads(cli.dumps_summary(summary))["results"]

    def test_correlations_csv(self, tmp_path):
        code, summary = cli.run(job("correlations", params={"n": 256, "n_max": 6}), tmp_path)
        assert code == cli.EXIT_OK
        lines = (tmp_path / "correlations.csv").read_text().strip().split("\n")
        assert lines[0] == "lag,C"
        assert len(lines) == 8
        c0 = float(lines[1].split(",")[1])
        assert c0 == pytest.approx(0.5, abs=1e-10)


class TestReproducibility:
    @pytest.mark.parametrize("cfg", [
        job("spectrum", params={"n": 128, "scheme": "collocation"}),
        job("clt", seed=3, params={"n": 256, "samples": 4000, "orbit_n": 25}),
        job("free-energy", seed=1, params={"n": 128, "steps": 9, "t_max": 0.3,
                                           "mc_t_values": [0.225], "mc_samples": 2000}),
        job("ldp", seed=5, params={"n": 128, "steps": 21, "t_max": 1.5,
                                   "a": 0.3, "b": 0.5, "n_list": [10, 20],
                                   "samples": 5000, "s_steps": 51}),
    ])
    def test_rerun_from_echoed_config_bitwise(self, cfg):
        code1, s1 = cli.run(cfg)
        code2, s2 = cli.run(s1["resolved_config"])
        assert code1 == code2
        assert cli.dumps_summary(s1) == cli.dumps_summary(s2)

    def test_csv_bitwise(self, tmp_path):
        cfg = job("rate-function", params={"n": 128, "steps": 21, "t_max": 0.5,
                                           "s_steps": 31})
        cli.run(cfg, tmp_path / "a")
        cli.run(cfg, tmp_path / "b")
        fa = (tmp_path / "a" / "rate_function.csv").read_text()
        fb = (tmp_path / "b" / "rate_function.csv").read_text()
        assert fa == fb


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(job("spectrum", params={"n": 128})))
        code = cli.main(["spectrum", "--config", str(cfg_path),
                         "--out", str(tmp_path / "artifacts")])
        assert code == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["results"]["lambda"] == pytest.approx(2.0, abs=1e-10)
        assert (tmp_path / "artifacts" / "summary.json").exists()

    def test_command_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(job("spectrum")))
        code = cli.main(["certify", "--config", str(cfg_path)])
        assert code == cli.EXIT_SCHEMA

    def test_missing_config(self, capsys):
        code = cli.main(["spectrum", "--config", "/nonexistent/job.json"])
        assert code == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("below", [False, True])
    def test_out_not_a_directory(self, tmp_path, capsys, below):
        # --out naming an existing file, or a path below one, is refused
        # before the job runs, without a traceback
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(job("spectrum", params={"n": 64})))
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub" if below else afile
        code = cli.main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory:")
        assert "Traceback" not in err

    def test_spectrum_never_densifies_matrix(self, tmp_path, monkeypatch):
        # the solve and both diagnostics read the entries; A stays unformed
        solved = []
        real = cli.leading_triple
        monkeypatch.setattr(cli, "leading_triple", lambda tm: solved.append(tm) or real(tm))
        code, summary = cli.run(job("spectrum", params={"n": 64}), tmp_path)
        assert code == cli.EXIT_OK
        assert summary["results"]["primitive"] is True
        assert len(solved) == 1 and "A" not in solved[0].__dict__

    def test_failing_grid_point_exits_compute(self, tmp_path, capsys, monkeypatch):
        from thermoformal import operator as T
        monkeypatch.setattr(T, "MAX_ITER", 1)
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(job("free-energy",
                                           params={"n": 64, "steps": 5, "t_max": 0.4})))
        code = cli.main(["free-energy", "--config", str(cfg_path)])
        assert code == cli.EXIT_COMPUTE
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConvergenceError"
        assert err["message"].startswith("eigen-solve failed at t=-0.4: ")

    def test_schema_violation_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(job("spectrum", params={"n": "large"})))
        code = cli.main(["spectrum", "--config", str(cfg_path)])
        assert code == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("cfg, path", [
        (job("spectrum", map={"kind": "builtin", "name": "doubling", "params": {"bogus": 1}}),
         "map.params"),
        (job("clt", observable={"kind": "fourier_cos", "params": {"kk": 3}}),
         "observable.params.kk"),
        (job("spectrum", potential={"kind": "tilt", "params": {
            "phi": {"kind": "constant", "params": {}},
            "psi": {"kind": "fourier_sin", "params": {"amp": 1}}, "t": 0.1}}),
         "potential.params.psi.params.amp"),
        (job("spectrum", params={"n": 4097}), "params.n"),
        (job("free-energy", params={"n": 64, "mc_t_values": [0.1], "mc_samples": 0}),
         "params.mc_samples"),
        (job("free-energy", params={"n": 64, "mc_t_values": [0.1], "mc_orbit_n": 0}),
         "params.mc_orbit_n"),
        (job("free-energy", params={"mc_t_values": "x"}), "params.mc_t_values"),
        (job("free-energy", params={"mc_t_values": [0.1, float("nan")]}),
         "params.mc_t_values[1]"),
        (job("ldp", params={"n_list": [20, 0]}), "params.n_list[1]"),
        (job("response", map={"kind": "builtin", "name": "doubling", "params": {"bogus": 1}}),
         "map.params"),
        (job("response", map={"kind": "builtin", "name": "derived_expanding",
                               "params": {"v": 1.9, "w": 2}}),
         "map.params.v"),
        (job("spectrum", potential={"kind": "constant", "params": {"value": float("nan")}},
             params={"n": 64}), "potential.params.value"),
        (job("ldp", params={"a": "x"}), "params.a"),
        (job("ldp", params={"b": "x"}), "params.b"),
        (job("response", params={"v_min": "x"}), "params.v_min"),
        (job("response", params={"v_max": "x"}), "params.v_max"),
        (job("response", map=SINK, params={"n": 64, "v_count": 5, "v_max": 2.5}),
         "params.v_max"),
        (job("response", map=SINK, params={"n": 64, "v_count": 5, "v_min": -0.5}),
         "params.v_min"),
        (job("response", params={"n": 64, "v_count": 5, "guard_N": 0}), "params.guard_N"),
        (job("response", params={"n": 64, "v_count": 5, "guard_gamma": 2}),
         "params.guard_gamma"),
        (job("response", params={"n": 64, "v_count": 5, "guard_resolution": 8}),
         "params.guard_resolution"),
        (job("free-energy", params={"n": 64, "eps_guard": "x"}), "params.eps_guard"),
        (job("free-energy", params={"n": 64, "eps_guard": -1}), "params.eps_guard"),
        ([1], ""),
        (job("spectrum", params=[1, 2]), "params"),
        (job("spectrum", map={"kind": "builtin", "name": "doubling", "params": [1, 2]}),
         "map.params"),
        (job("response", map={"kind": "builtin", "name": "doubling", "params": [1, 2]}),
         "map.params"),
        (job("clt", observable={"kind": "fourier_cos", "params": [1, 2]}), "observable.params"),
        (job("clt", observable={"kind": "fourier_cos", "params": {"k": "a"}}),
         "observable.params"),
        (job("correlations", observables={"g": {"kind": "fourier_cos", "params": {"k": "a"}},
                                          "psi": {"kind": "constant"}}),
         "observables.g.params"),
        (job("spectrum", potential={"kind": "tilt", "params": {
            "phi": {"kind": "constant"}, "psi": {"kind": "constant"}, "t": "x"}}),
         "potential.params"),
        (job("spectrum", map={"kind": "piecewise_poly", "params": {"breakpoints": [0.0, 1.0]}}),
         "map.params.coefficients"),
        (job("spectrum", map=dict(POLY2, degree="x")), "map.degree"),
        (job("spectrum", map=dict(POLY2, degree=-1)), "map.degree"),
        (job("spectrum", map=dict(POLY2, degree=3)), "map.degree"),
        (job("free-energy", params={"n": 64, "t_max": 0.4, "mc_t_values": [3.0]}),
         "params.mc_t_values[0]"),
        (job("free-energy", params={"n": 64, "t_max": 0.4, "mc_t_values": [0.4, 0.17]}),
         "params.mc_t_values[1]"),
        (job("spectrum", seed="x"), "seed"),
        (job("clt", params={"samples": 10 ** 12}), "params.samples"),
        (job("ldp", params={"samples": cli.MAX_SAMPLES + 1}), "params.samples"),
        (job("free-energy", params={"n": 64, "mc_t_values": [0.1],
                                    "mc_samples": cli.MAX_SAMPLES + 1}),
         "params.mc_samples"),
        (job("response", params={"n": 64, "v_count": 10 ** 12}), "params.v_count"),
        (job("certify", params={"resolution": 10 ** 12}), "params.resolution"),
        (job("correlations", params={"n": 64, "n_max": 10 ** 12}), "params.n_max"),
        (job("clt", params={"n": 64, "lag_max": cli.MAX_GRID_STEPS + 1}), "params.lag_max"),
        (job("response", params={"n": 64, "v_count": 5, "guard_resolution": 10 ** 12}),
         "params.guard_resolution"),
        # degree 1: the cell cap does not grow with the depth, the depth cap does
        (job("certify", map={"kind": "builtin", "name": "rotation"},
             params={"N": cli.MAX_GRID_STEPS + 1}), "params.N"),
        (job("response", map={"kind": "builtin", "name": "rotation"},
             params={"n": 64, "v_count": 5, "guard_N": cli.MAX_GRID_STEPS + 1}),
         "params.guard_N"),
        (job("clt", params={"n": 64, "orbit_n": cli.MAX_GRID_STEPS + 1}), "params.orbit_n"),
        (job("free-energy", params={"n": 64, "mc_t_values": [0.1],
                                    "mc_orbit_n": cli.MAX_GRID_STEPS + 1}),
         "params.mc_orbit_n"),
        (job("ldp", params={"n_list": [20, cli.MAX_GRID_STEPS + 1]}), "params.n_list[1]"),
        # a negative seed would reach numpy's SeedSequence in the Monte Carlo jobs
        (job("clt", seed=-1), "seed"),
        (job("ldp", seed=-1), "seed"),
        (job("free-energy", params={"n": 64, "mc_t_values": [0.1]}, seed=-1), "seed"),
    ])
    def test_bad_input_exits_with_field_path(self, tmp_path, capsys, cfg, path):
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(cfg))
        command = cfg["command"] if isinstance(cfg, dict) else "spectrum"
        code = cli.main([command, "--config", str(cfg_path)])
        assert code == cli.EXIT_SCHEMA
        # an error at the root of the config has no path to print
        expected = f"schema error: {path}:" if path else "schema error: config must be an object"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, path", [
        (job("certify", params={"N": 10 ** 12}), "params.N"),
        (job("certify", params={"N": 23, "resolution": 16}), "params.N"),
        (job("certify", params={"N": 22, "resolution": 24}), "params.resolution"),
        (job("response", params={"guard_N": 10 ** 12}), "params.guard_N"),
        (job("response", map={"kind": "builtin", "name": "mp_like"},
             params={"guard_N": 23}), "params.guard_N"),
    ])
    def test_certification_cells_capped(self, cfg, path):
        # checked by validation alone: a missing cap would allocate G^N arrays
        with pytest.raises(SchemaError) as exc:
            cli.validate(cfg)
        assert exc.value.path == path
        # degree 2: 2^22 * 16 cells lie within MAX_SAMPLES, 2^22 * 24 do not
        cli.validate(job("certify", params={"N": 22, "resolution": 16}))

    def test_response_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(job(
            "response",
            map={"kind": "builtin", "name": "derived_expanding"},
            potential={"kind": "fourier_cos", "params": {"k": 1, "amplitude": 0.1}},
            params={"n": 64, "v_count": 5, "guard_resolution": 512})))
        code = cli.main(["response", "--config", str(cfg_path),
                         "--out", str(tmp_path / "art")])
        assert code == 0
        lines = (tmp_path / "art" / "response.csv").read_text().strip().split("\n")
        assert lines[0] == "v,lambda,pressure,mean_obs,dlambda"
        assert len(lines) == 6


def test_cli_import_and_spectrum_leave_scipy_unloaded(tmp_path):
    # importing the CLI loads no scipy module, and spectrum jobs load neither
    # scipy.sparse nor numpy.random (the gap estimate draws no random
    # numbers): on a reducible map (mp_like) and on a primitive one (doubling)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cfgs = [job("spectrum", map={"kind": "builtin", "name": name}, params={"n": 64})
            for name in ("mp_like", "doubling")]
    code = ("import json, sys, thermoformal.cli as cli; "
            "mods = ('scipy', 'scipy.stats', 'scipy.special', 'scipy.sparse'); "
            "print(sorted(m for m in mods if m in sys.modules)); "
            "runs = [cli.run(cfg, sys.argv[2]) for cfg in json.loads(sys.argv[1])]; "
            "print([(code, s['results']['primitive']) for code, s in runs], "
            "'scipy.sparse' in sys.modules, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(cfgs), str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == [
        "[]", f"[({cli.EXIT_OK}, False), ({cli.EXIT_OK}, True)] False False"]


def test_spectrum_bytes_independent_of_blas_threads(tmp_path):
    # the gap's Arnoldi projections run through BLAS gemv: one BLAS thread
    # and the default thread count must write the same artifact bytes
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, thermoformal.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
    cfgs = {"mp": job("spectrum", map={"kind": "builtin", "name": "mp_like"},
                      params={"scheme": "ulam", "n": 4096}),
            "cos": job("spectrum", potential={"kind": "fourier_cos", "k": 1},
                       params={"scheme": "collocation", "n": 4096})}
    for name, cfg in cfgs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        artifacts = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env["PYTHONPATH"] = src
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"{name}-{threads}"
            subprocess.run([sys.executable, "-c", code, "spectrum", "--config",
                            str(tmp_path / f"{name}.json"), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            artifacts.append([(out / f).read_bytes() for f in ("summary.json", "spectrum.csv")])
        assert artifacts[0] == artifacts[1], name
