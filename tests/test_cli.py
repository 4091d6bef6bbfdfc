import csv
import json
import os
import subprocess
import sys
import warnings
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


def iterate(name, *powers):
    """The JSON of builtin map ``name`` iterated by each power in turn."""
    m = {"kind": "builtin", "name": name}
    for power in powers:
        m = {"kind": "iterate", "params": {"base": m, "power": power}}
    return m


def coboundaries(depth):
    """The JSON of ``depth`` nested coboundaries of cos 2 pi x."""
    u = {"kind": "fourier_cos"}
    for _ in range(depth):
        u = {"kind": "coboundary", "params": {"u": u}}
    return u


def nested_list(depth):
    v = 0.0
    for _ in range(depth):
        v = [v]
    return v


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

    def test_integral_float_power_and_frequency(self, tmp_path):
        # an iterate's power and a Fourier k follow the integer rule of the
        # params: 2.0 is taken as 2, echoed as 2 and gives the same bytes
        outs = []
        for two in (2, 2.0):
            cfg = job("spectrum", map=iterate("doubling", two), params={"n": 64},
                      potential={"kind": "fourier_cos", "params": {"k": two, "amplitude": 0.1}})
            assert cli.run(cfg, tmp_path / str(two))[0] == cli.EXIT_OK
            power = cli.validate(cfg)["map"]["params"]["power"]
            assert power == 2 and type(power) is int
            outs.append([(tmp_path / str(two) / f).read_bytes()
                         for f in ("spectrum.csv", "summary.json")])
        assert outs[0][0] == outs[1][0]
        # the summary echoes the potential as given, 2 or 2.0, and nothing else differs
        assert outs[0][1].replace(b'"k": 2', b'"k": 2.0') == outs[1][1]

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


def _reference_csv(path, header, columns):
    """csv.writer's bytes for a table, each numpy column read through tolist."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


class TestWriteCsv:
    def test_cells_as_csv_writer_wrote_them(self, tmp_path):
        inf = float("inf")
        floats = [0.1, -0.0, 1e16, 1e-05, 5e-324, float("nan"), inf, -inf]
        columns = (floats, np.array(floats[::-1]), np.arange(-3, 5, dtype=np.int64),
                   [0, 1, -2, 10 ** 20, 7, 8, 9, 10], range(8),
                   ["", 0.5, "", 2, "", "", 1e300, ""])
        header = ["f", "np_f", "np_i", "i", "r", "blank"]
        cli.write_csv(tmp_path / "a.csv", header, columns)
        _reference_csv(tmp_path / "b.csv", header, columns)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_bytes().splitlines(keepends=True)[:2] == [
            b"f,np_f,np_i,i,r,blank\r\n", b"0.1,-inf,-3,0,0,\r\n"]

    @pytest.mark.parametrize("cfg", [
        job("certify", map={"kind": "builtin", "name": "mp_like"},
            params={"N": 2, "resolution": 64}),
        job("spectrum", params={"n": 64}),
        job("correlations", params={"n": 64, "n_max": 8}),
        job("clt", seed=2, params={"n": 64, "samples": 200, "orbit_n": 5}),
        job("free-energy", params={"n": 64, "steps": 5, "eps_guard": 1.0}),
        job("rate-function", params={"n": 64, "steps": 9, "s_steps": 11}),
        job("ldp", seed=1, params={"n": 64, "steps": 11, "s_steps": 21, "n_list": [4, 8],
                                   "samples": 2000}),
        job("response", params={"n": 64, "v_count": 5, "guard_resolution": 64}),
    ], ids=lambda cfg: cfg["command"])
    def test_every_table_as_csv_writer_wrote_it(self, tmp_path, monkeypatch, cfg):
        written = []

        def both(path, header, columns):
            write_csv(path, header, columns)
            _reference_csv(tmp_path / "ref.csv", header, columns)
            written.append(path.read_bytes() == (tmp_path / "ref.csv").read_bytes())

        write_csv = cli.write_csv
        monkeypatch.setattr(cli, "write_csv", both)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)      # a failed admissibility guard
            cli.run(cfg, tmp_path / "out")
        assert written and all(written)


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

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"schema_version": 1, "command": "spectrum", "seed": 1' + "0" * 5000 + "}",
    ], ids=["too-deep", "too-many-digits"])
    def test_undecodable_config(self, tmp_path, capsys, text):
        # JSON too deep for the decoder, or an int past Python's digit limit
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(text)
        code = cli.main(["spectrum", "--config", str(cfg_path)])
        assert code == cli.EXIT_SCHEMA
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot read config: ")

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

    @pytest.mark.parametrize("cfg", [
        job("spectrum", potential={"kind": "fourier_cos", "params": {"k": 1, "amplitude": 800}},
            params={"n": 32}),
        job("free-energy", params={"n": 64, "steps": 5, "t_max": 1e6}),
        # the polynomial itself overflows to inf before exp does
        job("spectrum", potential={"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[0.0, 1e308, 1e308]]}},
            params={"n": 32}),
    ], ids=["spectrum", "free-energy", "piecewise-poly"])
    def test_overflowing_weights_exit_compute(self, tmp_path, capfd, cfg):
        # exp(phi) overflows: one JSON line on stderr, and no numpy warning
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([cfg["command"], "--config", str(cfg_path)])
        assert code == cli.EXIT_COMPUTE
        [line] = capfd.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "NonFiniteWeightsError"
        assert "entry weights that are not all finite" in err["message"]

    @pytest.mark.parametrize("command, params, error", [
        ("clt", {"n": 64, "samples": 100}, "NonFiniteObservableError"),
        ("free-energy", {"n": 64, "steps": 5}, "NonFiniteWeightsError"),
        ("ldp", {"n": 64, "steps": 5, "s_steps": 5, "n_list": [4, 8], "samples": 100},
         "NonFiniteWeightsError"),
        ("response", {"n": 64, "v_count": 5, "guard_resolution": 64},
         "NonFiniteObservableError"),
    ], ids=["clt", "free-energy", "ldp", "response"])
    def test_overflowing_observable_exit_compute(self, tmp_path, capfd, command, params, error):
        # the observable overflows to inf on the grid: one JSON line naming
        # it on stderr, and no numpy warning
        overflow = {"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[0.0, 1e308, 1e308]]}}
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(job(command, observable=overflow, params=params)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--config", str(cfg_path)])
        assert code == cli.EXIT_COMPUTE
        [line] = capfd.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == error
        assert err["message"].startswith("observable piecewise_poly is not finite on the grid")

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
        # the rate is extrapolated through the n: a repeat adds no abscissa
        (job("ldp", params={"n_list": [4, 4]}), "params.n_list[1]"),
        # certify has no mode: (C') is (C) on a map with a derivative
        (job("certify", map=dict(POLY2, params=dict(POLY2["params"], smoothness="holder")),
             params={"mode": "Cprime"}), "params.mode"),
        # a lift's span over [0, 1] is its degree, a positive integer
        (job("spectrum", map={"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[0.0, 0.4]]}}),
         "map.params.coefficients"),
        (job("spectrum", map={"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[0.0, 1.5]]}}),
         "map.params.coefficients"),
        # each scheme holds degree * n points: 2^40 * 16 and 2^20 * 128 are too many
        (job("spectrum", map={"kind": "iterate", "params": {
            "base": {"kind": "builtin", "name": "doubling"}, "power": 40}},
             params={"n": 64}), "map"),
        (job("spectrum", map={"kind": "iterate", "params": {
            "base": {"kind": "builtin", "name": "doubling"}, "power": 20}},
             params={"n": 128}), "params.n"),
        # a spec's own keys are checked, nested ones included
        (job("spectrum", potential={"kind": "fourier_cos", "k": 3}), "potential.k"),
        (job("spectrum", potential={"kind": "tilt", "params": {
            "phi": {"kind": "constant", "value": 1}, "psi": {"kind": "constant"}}}),
         "potential.params.phi.value"),
        (job("clt", observable={"kind": "fourier_cos", "k": 3}), "observable.k"),
        (job("correlations", observables={"g": {"kind": "constant", "value": 1},
                                          "psi": {"kind": "constant"}}),
         "observables.g.value"),
        (job("spectrum", map={"kind": "builtin", "name": "doubling", "bogus": 1}), "map.bogus"),
        (job("spectrum", map={"kind": "iterate", "params": {
            "base": {"kind": "builtin", "name": "doubling", "bogus": 1}, "power": 2}}),
         "map.bogus"),
        (job("response", potential={"kind": "fourier_cos", "k": 3}), "potential.k"),
        (job("response", observable={"kind": "fourier_cos", "k": 3}), "observable.k"),
        (job("response", map={"kind": "builtin", "name": "doubling", "bogus": 1}), "map.bogus"),
        (job("response", map={"kind": "builtin", "name": "derived_expanding", "bogus": 1}),
         "map.bogus"),
        # a misspelt smoothness must not declare a Hölder map smooth
        (job("certify", map=dict(POLY2, params=dict(POLY2["params"], smoothness="Holder"))),
         "map.params.smoothness"),
        # a lift that overflows is rejected, without a numpy warning
        (job("certify", map={"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[0.0, 1e308, 1e308]]}}),
         "map.params.coefficients"),
        # a piecewise observable's errors are reported where it sits
        (job("spectrum", potential={"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 0.5, 0.4, 1.0], "coefficients": [[0.0], [0.0], [0.0]]}}),
         "potential.params"),
        (job("correlations", observables={"g": {"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[0.0], [1.0]]}},
            "psi": {"kind": "constant"}}), "observables.g.params"),
        # certify has no mode, though summaries of older versions echo "mode": "C"
        (job("certify", map={"kind": "builtin", "name": "mp_like"}, params={"mode": "C"}),
         "params.mode"),
        # an iterate is bounded before its lift is composed: its power (nested
        # iterates multiply) and its degree, which a degree-1 base never raises
        (job("spectrum", map=iterate("doubling", 100_000), params={"n": 64}),
         "map.params.power"),
        (job("spectrum", map=iterate("doubling", 54), params={"n": 64}), "map.params.power"),
        (job("spectrum", map=iterate("rotation", 65), params={"n": 64}), "map.params.power"),
        (job("spectrum", map=iterate("rotation", 8, 9), params={"n": 64}),
         "map.params.power"),
        # a coboundary evaluates its u twice: 2^7 evaluations are too many
        (job("spectrum", potential=coboundaries(7), params={"n": 64}), "potential"),
        (job("spectrum", potential=coboundaries(8), params={"n": 64}), "potential.params.u"),
        (job("spectrum", potential={"kind": "tilt", "params": {
            "phi": coboundaries(6), "psi": {"kind": "constant"}}}, params={"n": 64}),
         "potential"),
        # nesting too deep to walk is refused where it crosses the cap
        (job("spectrum", potential=coboundaries(250)),
         "potential" + ".params.u" * (cli.MAX_CONFIG_DEPTH // 2)),
        (job("spectrum", potential={"kind": "constant", "params": {"value": nested_list(600)}}),
         "potential.params.value" + "[0]" * (cli.MAX_CONFIG_DEPTH - 2)),
        # an int beyond the float range is no finite number
        (job("spectrum", potential={"kind": "constant", "params": {"value": 10 ** 400}}),
         "potential.params.value"),
        (job("spectrum", params={"n": 10 ** 400}), "params.n"),
        # a name that is not a string names no kind or map
        (job("spectrum", potential={"kind": [1]}), "potential.kind"),
        (job("response", map={"kind": "builtin", "name": [1]}), "map.name"),
        # piecewise breakpoints are numbers, and each coefficient row a flat
        # list of numbers: nothing is read into a shape it was not given
        (job("spectrum", map={"kind": "piecewise_poly", "params": {
            "breakpoints": "ab", "coefficients": [[0.0, 2.0]]}}), "map.params.breakpoints"),
        (job("spectrum", map={"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[[0, 2]]]}}), "map.params.coefficients"),
        (job("spectrum", map={"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[[0], [2]]]}}),
         "map.params.coefficients"),
        (job("spectrum", potential={"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[[0, 2]]]}}, params={"n": 64}),
         "potential.params"),
        (job("spectrum", potential={"kind": "piecewise_poly", "params": {
            "breakpoints": [0.0, 1.0], "coefficients": [[[0], [2]]]}}, params={"n": 64}),
         "potential.params"),
        # a builtin map's params are numbers, not strings, booleans or lists
        (job("spectrum", map={"kind": "builtin", "name": "derived_expanding",
                              "params": {"v": "0.5"}}), "map.params"),
        (job("spectrum", map={"kind": "builtin", "name": "rotation", "params": {"theta": True}}),
         "map.params"),
        (job("spectrum", map={"kind": "builtin", "name": "derived_expanding",
                              "params": {"v": [0.5]}}), "map.params"),
        # a Fourier frequency is an integer, not truncated to one
        (job("spectrum", potential={"kind": "fourier_cos", "params": {"k": 1.5}},
             params={"n": 64}), "potential.params"),
        (job("clt", observable={"kind": "fourier_sin", "params": {"k": 0.5}},
             params={"n": 64}), "observable.params"),
        # an observable's value, amplitude, scale and t are numbers, as a
        # builtin map's params are: no string is read as one, no boolean
        (job("spectrum", potential={"kind": "tilt", "params": {
            "phi": {"kind": "constant", "params": {"value": "1e-3"}}, "t": "0.1",
            "psi": {"kind": "fourier_cos", "params": {"amplitude": "0.5"}}}},
             params={"n": 64}), "potential.params.phi.params"),
        (job("spectrum", potential={"kind": "constant", "params": {"value": True}},
             params={"n": 64}), "potential.params"),
        (job("spectrum", potential={"kind": "neg_log_deriv", "params": {"scale": "2"}},
             params={"n": 64}), "potential.params"),
        (job("spectrum", potential={"kind": "tilt", "params": {
            "phi": {"kind": "constant"}, "t": 0.1,
            "psi": {"kind": "fourier_cos", "params": {"amplitude": "0.5"}}}},
             params={"n": 64}), "potential.params.psi.params"),
        (job("spectrum", potential={"kind": "tilt", "params": {
            "phi": {"kind": "constant"}, "t": "0.1", "psi": {"kind": "fourier_cos"}}},
             params={"n": 64}), "potential.params"),
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

    def test_bad_observable_exits_before_the_solve(self, tmp_path, monkeypatch):
        # observables are built with the map, before any eigen-solve
        def solve(*args, **kwargs):
            raise AssertionError("leading_triple called")
        monkeypatch.setattr(cli, "leading_triple", solve)
        cfg_path = tmp_path / "job.json"
        cfg_path.write_text(json.dumps(job(
            "correlations", observables={"g": {"kind": "nope"}, "psi": {"kind": "constant"}},
            params={"n": 64})))
        assert cli.main(["correlations", "--config", str(cfg_path)]) == cli.EXIT_SCHEMA

    def test_response_tilt_of_neg_log_deriv(self):
        # a map-bound part of a tilt is built from each member's map: phi + 0 psi
        # gives phi's lambdas bit for bit
        params = {"n": 64, "v_count": 5, "guard_resolution": 64}
        geometric = {"kind": "neg_log_deriv", "params": {"scale": 1.0}}
        tilt = {"kind": "tilt", "params": {"phi": geometric, "t": 0.0,
                                           "psi": {"kind": "fourier_sin"}}}
        runs = [cli.run(job("response", map=SINK, potential=pot, params=params))
                for pot in (tilt, geometric)]
        assert [code for code, _ in runs] == [cli.EXIT_OK, cli.EXIT_OK]
        assert (runs[0][1]["results"]["max_adjacent_lambda_jump"]
                == runs[1][1]["results"]["max_adjacent_lambda_jump"])

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


    def test_response_on_fixed_map(self, tmp_path):
        # a map that does not depend on v is one column for the whole grid:
        # every lambda is the map's own, and every dlambda is 0
        from thermoformal import maps as M
        from thermoformal import observables as O
        code, _ = cli.run(job("response", map={"kind": "builtin", "name": "mp_like"},
                              potential={"kind": "fourier_cos",
                                         "params": {"k": 1, "amplitude": 0.1}},
                              params={"n": 64, "v_count": 5}), tmp_path)
        assert code == cli.EXIT_OK
        with open(tmp_path / "response.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        lam = cli.leading_triple(cli.build_matrix(M.mp_like_map(), O.fourier_cos(1, 0.1),
                                                  "collocation", 64)).lam
        assert len(rows) == 5
        assert [float(r["lambda"]) for r in rows] == [lam] * 5
        assert [float(r["dlambda"]) for r in rows] == [0.0] * 5

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
            "cos": job("spectrum", potential={"kind": "fourier_cos", "params": {"k": 1}},
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
