"""What the benchmark's layer tracer (``benchmarks/layertrace.py``) needs of
the program: every name it rebinds, a ``TransferMatrix.A`` whose bytes and
nonzeros it counts (the matrix stores only its entries, so reading ``A``
forms the dense n x n array, in traced jobs only; ``TransferMatrix.transport``,
which the tracer also reads, is always None), and orbit calls whose
``(m, x0, n)`` give the true number of orbit steps.  A change that breaks
any of these fails here, in the main suite, and not only in the benchmark's
own tests."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from thermoformal import curves as Cv
from thermoformal import maps as M
from thermoformal import observables as O
from thermoformal import operator as T

LAYERTRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_rebound_names_exist(layertrace):
    missing = [f"{mod}.{name}" for mod, name, _, _ in layertrace._REBIND
               if not hasattr(importlib.import_module(f"thermoformal.{mod}"), name)]
    assert missing == []


@pytest.mark.parametrize("scheme, stored", [("collocation", 1), ("ulam", 1)])
def test_assembly_counts(layertrace, scheme, stored):
    n = 16
    tm = T.build_matrix(M.doubling_map(), O.zero, scheme, n)
    assert tm.transport is None
    tracer = layertrace.Tracer()
    tracer._count_assemble(tm)
    assert tracer.counts["operator.assemble_calls"] == 1
    assert tracer.counts["operator.matrix_bytes"] == stored * n * n * 8
    assert tracer.counts["operator.stored_entries"] == stored * n * n
    assert tracer.counts["operator.nonzeros"] >= np.count_nonzero(tm.A) > 0


def test_ldp_orbit_steps(layertrace, monkeypatch):
    # The LDP runs each orbit once, to the largest n, in segments; a batch
    # of 2**17 (the default) over 20 000 samples runs in three blocks of
    # maps.BLOCK, and the blocks' calls add up to one batch's counts.
    orbit, sample = Cv.orbit_birkhoff_samples, Cv.sample_from_state
    d, psi = M.doubling_map(), O.fourier_cos(1)
    curve = Cv.free_energy_curve(d, O.zero, psi, t_max=1.0, steps=11, n=32)
    for samples, batch_size in [(300, 128), (20_000, 1 << 17)]:
        tracer = layertrace.Tracer()
        monkeypatch.setattr(Cv, "orbit_birkhoff_samples",
                            tracer.wrap("maps.orbit", orbit, tracer._count_orbit))
        monkeypatch.setattr(Cv, "sample_from_state",
                            tracer.wrap("statistics.sample", sample, tracer._count_sample))
        Cv.ldp_empirical(d, np.full(32, 1.0 / 32), psi.fn, 0.1, 0.5, [8, 3, 5], samples,
                         seed=1, rate=Cv.rate_function(curve, 21), batch_size=batch_size)
        assert tracer.counts["maps.orbit_steps"] == samples * 8
        assert tracer.counts["statistics.sample_points"] == samples
