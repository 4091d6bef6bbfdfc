"""Pinned-seed golden values of the three Monte Carlo estimators.

The numbers below are exact: a refactor of the seeded batch loop, the
sampler or the orbit kernel must reproduce them bit for bit.  ``samples``
is not a multiple of ``batch_size``, so the ragged last batch is covered.
The cell masses mu are built by hand from dyadic weights, so no
eigen-solve (and no BLAS summation order) enters the pinned values.
"""

import numpy as np
import pytest

from thermoformal import curves as Cv
from thermoformal import maps as M
from thermoformal import observables as O
from thermoformal import statistics as S

SAMPLES = 2500
BATCH = 1000

# x(1-x) on two pieces, so the piecewise evaluator takes both branches
PSI = O.piecewise_poly([0.0, 0.5, 1.0], [[0.0, 1.0, -1.0], [0.25, 0.0, -1.0]])


@pytest.fixture(scope="module")
def mu():
    return np.where(np.arange(64) % 2 == 0, 1.5, 0.5) / 64


def test_clt_ks_statistic(mu):
    var = S.VarianceReport(sigma2=0.01, lag_max=1, tail_bound=None,
                           coboundary=False, series=None, mean=1.0 / 6.0)
    rep = S.clt_empirical(M.doubling_map(), mu, PSI.fn, n=12, samples=SAMPLES,
                          seed=41, variance=var, batch_size=BATCH)
    assert rep.ks_statistic.hex() == "0x1.2303d707698f0p-4"


def test_free_energy_mc(mu):
    val = Cv.free_energy_mc(M.doubling_map(), mu, PSI.fn, t=0.75, n=10,
                            samples=SAMPLES, seed=11, batch_size=BATCH)
    assert val.hex() == "0x1.0407a6feeb543p-3"


def test_ldp_counts(mu):
    d = M.doubling_map()
    curve = Cv.free_energy_curve(d, O.zero, PSI, t_max=2.0, steps=11, n=64)
    rate = Cv.rate_function(curve, 21)
    rep = Cv.ldp_empirical(d, mu, PSI.fn, 0.2, 0.3, [4, 8, 16], SAMPLES,
                           seed=5, rate=rate, batch_size=BATCH)
    # All three n read the same orbits; n=4 keeps the stream it had when
    # each n drew orbits of its own, so its count is the same 640.
    assert rep.counts.tolist() == [640, 313, 108]
