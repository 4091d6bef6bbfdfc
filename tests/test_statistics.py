import tracemalloc

import numpy as np
import pytest

from thermoformal import maps as M
from thermoformal import observables as O
from thermoformal import operator as T
from thermoformal import statistics as S
from thermoformal.errors import CoboundaryRefusedError

COS = lambda x: np.cos(2 * np.pi * np.asarray(x))
SIN = lambda x: np.sin(2 * np.pi * np.asarray(x))


@pytest.fixture(scope="module")
def doubling_state():
    d = M.doubling_map()
    return d, T.leading_triple(T.build_matrix(d, O.zero, "ulam", 1024))


class TestCorrelations:
    def test_doubling_cos_orthogonality(self, doubling_state):
        d, tr = doubling_state
        cs = S.correlations(tr, COS, COS, 10)
        assert cs.values[0] == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(cs.values[1:])) < 1e-12
        assert cs.tau_hat is None  # everything below the noise floor

    def test_constant_observable(self, doubling_state):
        d, tr = doubling_state
        cs = S.correlations(tr, lambda x: np.full_like(np.asarray(x), 2.0), COS, 5)
        assert np.max(np.abs(cs.values)) < 1e-14

    def test_c0_is_covariance(self, doubling_state):
        d, tr = doubling_state
        g = lambda x: np.asarray(x) ** 2
        cs = S.correlations(tr, g, COS, 3)
        x = tr.grid
        cov = float((g(x) * COS(x)) @ tr.mu) - float(g(x) @ tr.mu) * float(COS(x) @ tr.mu)
        assert cs.values[0] == pytest.approx(cov, abs=1e-14)

    def test_mp_rate_below_gap(self):
        mp = M.mp_like_map()
        tr = T.leading_triple(T.build_matrix(mp, O.zero, "collocation", 1024))
        cs = S.correlations(tr, COS, COS, 30)
        assert cs.tau_hat is not None
        assert cs.tau_hat <= T.gap_ratio(tr).ratio + 0.05
        assert cs.tau_hat < 1.0

    def test_memory_does_not_grow_with_lags(self):
        # Each lag is read off as the push runs.  Holding every push would
        # take n_max + 1 = 2001 n-vectors; the decay fit runs over all lags.
        n, mp = 512, M.mp_like_map()
        tr = T.leading_triple(T.build_matrix(mp, O.zero, "ulam", n))
        tracemalloc.start()
        try:
            cs = S.correlations(tr, COS, COS, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.abs(cs.values) > S.NOISE_FLOOR)
        assert peak < 64 * n * 8


class TestCltVariance:
    def test_doubling_cos_half(self, doubling_state):
        d, tr = doubling_state
        vr = S.clt_variance(tr, COS, 64)
        assert vr.sigma2 == pytest.approx(0.5, abs=1e-6)
        assert not vr.coboundary

    def test_constant_zero_exact(self, doubling_state):
        d, tr = doubling_state
        vr = S.clt_variance(tr, lambda x: np.full_like(np.asarray(x), 1.3), 64)
        assert vr.sigma2 == 0.0
        assert vr.coboundary

    def test_coboundary_flagged(self):
        # quadrature error in the Green-Kubo series decays like n^-2; the
        # sub-1e-6 regime needs the largest dense grid
        d = M.doubling_map()
        tr = T.leading_triple(T.build_matrix(d, O.zero, "ulam", 4096))
        cob = O.coboundary(O.fourier_cos(1), d)
        vr = S.clt_variance(tr, cob.fn, 64)
        assert vr.sigma2 < 1e-6
        assert vr.coboundary

    def test_tail_bound_needs_resolved_gap(self):
        # doubling, phi = cos 2 pi x, n = 1024: collocation resolves the gap;
        # Ulam's ratio sits on its essential bound and is not resolved
        d = M.doubling_map()
        for scheme, resolved in (("collocation", True), ("ulam", False)):
            tr = T.leading_triple(T.build_matrix(d, O.fourier_cos(1), scheme, 1024))
            gap = T.gap_ratio(tr)
            vr = S.clt_variance(tr, SIN, 64)
            assert gap.resolved is resolved, scheme
            if resolved:
                assert vr.tail_bound == pytest.approx(
                    vr.series.values[0] * gap.ratio ** 65 / (1 - gap.ratio), rel=1e-12)
            else:
                assert vr.tail_bound is None
            assert not vr.coboundary

    def test_shift_invariance(self, doubling_state):
        d, tr = doubling_state
        a = S.clt_variance(tr, COS, 64).sigma2
        b = S.clt_variance(tr, lambda x: COS(x) + 2.4, 64).sigma2
        assert abs(a - b) < 1e-8

    def test_quadratic_scaling(self, doubling_state):
        d, tr = doubling_state
        a = S.clt_variance(tr, COS, 64).sigma2
        b = S.clt_variance(tr, lambda x: 3.0 * COS(x), 64).sigma2
        assert abs(b - 9.0 * a) < 1e-8


class TestCltEmpirical:
    def test_ks_below_threshold(self, doubling_state):
        d, tr = doubling_state
        vr = S.clt_variance(tr, COS, 64)
        rep = S.clt_empirical(d, tr.mu, COS, n=50, samples=100_000, seed=8, variance=vr)
        assert rep.ks_statistic < 0.02

    def test_bitwise_reproducible(self, doubling_state):
        d, tr = doubling_state
        vr = S.clt_variance(tr, COS, 64)
        a = S.clt_empirical(d, tr.mu, COS, n=40, samples=20_000, seed=77, variance=vr)
        b = S.clt_empirical(d, tr.mu, COS, n=40, samples=20_000, seed=77, variance=vr)
        assert a.ks_statistic == b.ks_statistic
        assert np.array_equal(a.quantiles, b.quantiles)

    def test_sample_size_scaling(self, doubling_state):
        # in the noise-dominated regime KS roughly halves when m -> 4m
        d, tr = doubling_state
        vr = S.clt_variance(tr, SIN, 64)
        small = S.clt_empirical(d, tr.mu, SIN, n=100, samples=25_000, seed=5, variance=vr)
        big = S.clt_empirical(d, tr.mu, SIN, n=100, samples=100_000, seed=5, variance=vr)
        assert small.ks_statistic / big.ks_statistic > 1.4
        assert big.ks_statistic < 0.01

    def test_refuses_coboundary(self, doubling_state):
        d, tr = doubling_state
        const = lambda x: np.full_like(np.asarray(x), 2.0)
        vr = S.clt_variance(tr, const, 64)
        with pytest.raises(CoboundaryRefusedError):
            S.clt_empirical(d, tr.mu, const, n=50, samples=1000, seed=1, variance=vr)


class TestSampling:
    def test_inverse_cdf_matches_weights(self, doubling_state):
        d, tr = doubling_state
        rng = S.rng_for(123, 0)
        xs = S.sample_from_state(tr.mu, 200_000, rng)
        hist, _ = np.histogram(xs, bins=16, range=(0, 1))
        assert np.max(np.abs(hist / 200_000 - 1.0 / 16)) < 5e-3

    def test_seed_splitting_is_stable(self):
        a = S.rng_for(9, 0).random(4)
        b = S.rng_for(9, 0).random(4)
        c = S.rng_for(9, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def whole_batch_sums(m, mu, psi, n, samples, seed, batch_size):
    """``birkhoff_sums`` as one sample and one orbit run per whole batch."""
    sums = [M.orbit_birkhoff_samples(m, S.sample_from_state(mu, take, rng), n, psi, rng=rng)
            for _, take, rng in S.mc_batches(samples, batch_size, seed)]
    return np.concatenate(sums)


class TestBlockStreams:
    """A batch run one block at a time draws what the whole batch would."""

    # BLOCK 1000 and 777 leave a ragged last block; each batch size is above,
    # equal to or below the block, and 5001 samples leave a short last batch.
    CASES = [(1000, 2500), (1000, 1000), (1000, 600), (777, 2500), (777, 777), (777, 500)]

    @pytest.mark.parametrize("block", [1000, 777])
    def test_each_block_reads_its_share(self, monkeypatch, block):
        monkeypatch.setattr(M, "BLOCK", block)
        take, draws = 2500, 5
        whole = S.rng_for(3, 1).random(draws * take).reshape(draws, take)
        got = np.empty_like(whole)
        sizes = []
        for lo, size, stream in S.block_streams(take, S.rng_for(3, 1)):
            sizes.append(size)
            got[0, lo:lo + size] = stream.random(size)
            for k in range(1, draws):
                stream.random(out=got[k, lo:lo + size])
        assert sizes == [block] * (take // block) + [take % block]
        assert np.array_equal(got, whole)

    @pytest.mark.parametrize("block, batch_size", CASES)
    def test_birkhoff_sums_match_whole_batch(self, monkeypatch, cpus, block, batch_size):
        monkeypatch.setattr(M, "BLOCK", block)
        d = M.doubling_map()
        mu = np.random.default_rng(2).random(64)
        mu /= mu.sum()
        got = S.birkhoff_sums(d, mu, COS, 7, 5001, 13, batch_size)
        assert np.array_equal(got, whole_batch_sums(d, mu, COS, 7, 5001, 13, batch_size))


class TestMcMap:
    """Monte Carlo batches give the same bytes on any number of cores."""

    def test_results_in_batch_order(self, cpus):
        import threading
        import time

        threads = set()

        def fn(start, size, rng):
            threads.add(threading.get_ident())
            time.sleep(0.02 if start == 0 else 0.0)    # the first batch ends last
            return start, size, rng.random()

        want = [(start, size, rng.random())
                for start, size, rng in S.mc_batches(2500, 1000, 3, 4)]
        assert S.mc_map(fn, 2500, 1000, 3, 4) == want
        # one CPU runs the batches in the caller's thread, two in a pool
        assert (threads == {threading.get_ident()}) == (cpus == 1)
        assert [r[:2] for r in want] == [(0, 1000), (1000, 1000), (2000, 500)]

    def test_estimators_do_not_depend_on_core_count(self, monkeypatch):
        # 8 CPUs run more threads than the host has cores, and the short
        # switch interval makes them interleave inside each batch.
        import sys
        from thermoformal import curves as Cv
        d = M.doubling_map()
        psi = O.fourier_cos(1)
        mu = np.full(64, 1.0 / 64)
        rate = Cv.rate_function(Cv.free_energy_curve(d, O.zero, psi, t_max=2.0,
                                                     steps=11, n=64), 21)
        var = S.VarianceReport(sigma2=0.5, tail_bound=None, coboundary=False,
                               series=None, mean=0.0)
        results = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for k in (1, 2, 8):
                monkeypatch.setattr(S.os, "sched_getaffinity", lambda pid, k=k: set(range(k)))
                ldp = Cv.ldp_empirical(d, mu, psi.fn, 0.1, 0.5, [4, 8], 2500, seed=5,
                                       rate=rate, batch_size=250)
                [fe] = Cv.free_energy_mc(d, mu, psi.fn, [0.5], n=10, samples=2500,
                                         seed=11, batch_size=250)
                clt = S.clt_empirical(d, mu, psi.fn, n=12, samples=2500, seed=41,
                                      variance=var, batch_size=250)
                results.append((ldp.counts.tobytes(), fe.hex(), clt.ks_statistic.hex(),
                                clt.quantiles.tobytes()))
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]
