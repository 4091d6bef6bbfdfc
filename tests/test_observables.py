import numpy as np
import pytest

from thermoformal import maps as M
from thermoformal import observables as O
from thermoformal.errors import SchemaError


class TestLibrary:
    def test_catalog_kinds(self):
        # every kind of the catalog builds from its JSON, with its defaults
        params = {"constant": {}, "fourier_cos": {}, "fourier_sin": {}, "neg_log_deriv": {},
                  "coboundary": {"u": {"kind": "fourier_cos"}},
                  "piecewise_poly": {"breakpoints": [0.0, 1.0], "coefficients": [[1.0]]},
                  "tilt": {"phi": {"kind": "constant"}, "psi": {"kind": "fourier_sin"}}}
        assert set(O._KINDS) == set(params)
        for kind, p in params.items():
            spec = O.observable_from_json({"kind": kind, "params": p}, M.doubling_map())
            assert spec.json_obj["kind"] == kind

    def test_constant(self):
        c = O.constant(3.5)
        xs = np.linspace(0, 1, 7)
        assert np.all(c.fn(xs) == 3.5)

    def test_neg_log_deriv_on_doubling(self):
        phi = O.neg_log_deriv(M.doubling_map())
        xs = np.linspace(0, 1, 9, endpoint=False)
        assert np.allclose(phi.fn(xs), -np.log(2.0), atol=1e-15)

    def test_neg_log_deriv_requires_derivative(self):
        base = M.doubling_map()
        holder = M.MapSpec(name="h", degree=2, lift=base.lift, derivative=None)
        with pytest.raises(ValueError):
            O.neg_log_deriv(holder)

    def test_coboundary_of_cos_under_doubling(self):
        cob = O.coboundary(O.fourier_cos(1), M.doubling_map())
        xs = np.linspace(0, 1, 33, endpoint=False)
        want = np.cos(4 * np.pi * xs) - np.cos(2 * np.pi * xs)
        assert np.allclose(cob.fn(xs), want, atol=1e-14)

    def test_piecewise_poly(self):
        tri = O.piecewise_poly([0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, -2.0]])
        assert tri.fn(0.25) == pytest.approx(0.5)
        assert tri.fn(0.75) == pytest.approx(0.5)
        assert tri.fn(np.array([0.5]))[0] == pytest.approx(1.0)

    def test_combine_and_shift(self):
        phi = O.combine(O.fourier_cos(1), O.fourier_sin(1), 0.5)
        xs = np.linspace(0, 1, 11)
        want = np.cos(2 * np.pi * xs) + 0.5 * np.sin(2 * np.pi * xs)
        assert np.allclose(phi.fn(xs), want, atol=1e-15)
        sh = O.combine(O.fourier_cos(1), O.constant(1.0), 2.0)
        assert np.allclose(sh.fn(xs), np.cos(2 * np.pi * xs) + 2.0, atol=1e-15)


class TestJson:
    def test_roundtrip(self):
        for spec in (O.constant(1.2), O.fourier_cos(3, 0.4), O.fourier_sin(2),
                     O.piecewise_poly([0.0, 1.0], [[1.0, 1.0]])):
            rebuilt = O.observable_from_json(spec.json_obj)
            xs = np.linspace(0, 1, 17, endpoint=False)
            assert np.array_equal(spec.fn(xs), rebuilt.fn(xs))

    def test_map_bound_roundtrip(self):
        d = M.doubling_map()
        cob = O.coboundary(O.fourier_cos(1), d)
        rebuilt = O.observable_from_json(cob.json_obj, d)
        xs = np.linspace(0, 1, 17, endpoint=False)
        assert np.array_equal(cob.fn(xs), rebuilt.fn(xs))

    def test_map_bound_requires_map(self):
        with pytest.raises(SchemaError):
            O.observable_from_json({"kind": "neg_log_deriv", "params": {}})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            O.observable_from_json({"kind": "wavelet"})

    def test_evaluation_count_bounded(self):
        # a coboundary evaluates its u twice, a tilt each of its sides once
        d = M.doubling_map()
        u = {"kind": "fourier_cos"}
        for _ in range(6):
            u = {"kind": "coboundary", "params": {"u": u}}
        assert O.observable_from_json(u, d).evals == O.MAX_EVALS == 64
        tilt = {"kind": "tilt", "params": {"phi": u, "psi": {"kind": "constant"}}}
        with pytest.raises(SchemaError) as exc:
            O.observable_from_json({"kind": "tilt", "params": {"phi": tilt, "psi": u}}, d,
                                   "potential")
        assert exc.value.path == "potential.params.phi"


class TestOrbitSample:
    def test_constant_observable(self):
        d = M.doubling_map()
        x = np.array([0.2])
        total = M.orbit_birkhoff_samples(d, x, 8, lambda x: np.full_like(np.asarray(x), 1.5))
        assert total.shape == (1,) and total[0] == pytest.approx(12.0, abs=1e-12)
        assert x[0] == 0.2           # the start is left as it was
