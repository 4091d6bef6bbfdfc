"""Correlation decay, Green-Kubo variance, CLT diagnostics, and the seeded
Monte Carlo batch runner."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import maps
from .errors import CoboundaryRefusedError
from .maps import MapSpec, orbit_birkhoff_samples
from .observables import finite_values
from .operator import SpectralTriple, gap_ratio

#: Absolute variance floor for the coboundary flag; discretization noise in
#: the Green-Kubo series sits orders of magnitude above the spectral tail
#: bound, so the pure tail-bound rule alone cannot fire.
COBOUNDARY_ABS_TOL = 1e-6
#: Correlations at or below this magnitude are left out of the decay fit.
NOISE_FLOOR = 1e-12
#: The CLT Q-Q table has QUANTILE_LEVELS evenly spaced levels in (0, 1).
QUANTILE_LEVELS = 99


@dataclass(frozen=True)
class CorrelationSeries:
    lags: np.ndarray
    values: np.ndarray
    tau_hat: Optional[float]
    prefactor: Optional[float]


@dataclass(frozen=True)
class VarianceReport:
    sigma2: float
    tail_bound: Optional[float]
    coboundary: bool
    series: CorrelationSeries
    mean: float


def correlations(triple: SpectralTriple, g: Callable, psi: Callable,
                 n_max: int) -> CorrelationSeries:
    """C(k) = int (g o f^k) psi dmu - int g dmu int psi dmu, spectrally.

    Uses int (g o f^k) psi dmu = <nu, g * (A/lambda)^k (psi h)> on the grid,
    so the decay rate reflects the discretized operator rather than Monte
    Carlo noise.  Each lag is read off as the push runs, so only one
    pushed vector is held.  tau_hat is the log-linear fit over lags above
    the noise floor ``NOISE_FLOOR`` (None when everything is below it).
    """
    tm, lam, nu, mu, x = triple.matrix, triple.lam, triple.nu, triple.mu, triple.grid
    gx = np.asarray(g(x), dtype=float)
    psix = np.asarray(psi(x), dtype=float)
    mean_g, mean_psi = float(gx @ mu), float(psix @ mu)
    vals = np.empty(n_max + 1)
    w = psix * triple.h
    for k in range(n_max + 1):
        if k:
            w = (tm @ w) / lam
        vals[k] = float(nu @ (gx * w)) - mean_g * mean_psi
    lags = np.arange(n_max + 1)

    keep = (lags >= 1) & (np.abs(vals) > NOISE_FLOOR)
    tau_hat = prefactor = None
    if np.count_nonzero(keep) >= 2:
        slope, intercept = np.polyfit(lags[keep], np.log(np.abs(vals[keep])), 1)
        tau_hat = float(np.exp(slope))
        prefactor = float(np.exp(intercept))
    return CorrelationSeries(lags=lags, values=vals, tau_hat=tau_hat,
                             prefactor=prefactor)


def clt_variance(triple: SpectralTriple, psi: Callable, lag_max: int) -> VarianceReport:
    """Green-Kubo variance sigma^2 = C_v(0) + 2 sum_{j<=lag_max} C_v(j).

    v is psi centered to zero mu-mean.  The spectral tail bound
    gap^(lag_max+1)/(1-gap) * C_v(0) controls the truncated series when the
    gap estimate is resolved, and is None otherwise; the coboundary flag
    fires when sigma^2 falls below 10x that bound or below the absolute
    floor (discretization noise scale).  A psi that is not finite on the
    grid raises ``NonFiniteObservableError`` naming it.
    """
    if lag_max < 1:
        raise ValueError("lag_max must be >= 1")
    mean = float(finite_values(psi, triple.grid) @ triple.mu)
    v = lambda z, psi=psi, c=mean: np.asarray(psi(z), dtype=float) - c
    series = correlations(triple, v, v, lag_max)
    c0 = series.values[0]
    sigma2 = float(c0 + 2.0 * np.sum(series.values[1:]))

    gap = gap_ratio(triple)
    tail = (float(abs(c0) * gap.ratio ** (lag_max + 1) / (1.0 - gap.ratio))
            if gap.resolved and gap.ratio < 1.0 else None)
    flag_level = COBOUNDARY_ABS_TOL if tail is None else max(10.0 * tail, COBOUNDARY_ABS_TOL)
    return VarianceReport(
        sigma2=sigma2,
        tail_bound=tail,
        coboundary=bool(sigma2 < flag_level),
        series=series,
        mean=mean,
    )


def sample_from_state(mu, size, rng):
    """Draw from the cell masses ``mu`` by inverse CDF over cells with
    intra-cell uniform jitter."""
    cum = np.cumsum(mu)
    cum[-1] = 1.0
    u = rng.random(size)
    cells = np.searchsorted(cum, u, side="right")
    x = rng.random(out=u)           # the jitter, in place on u
    x += cells
    x /= mu.size
    return x


def block_streams(take, rng):
    """Yield (lo, size, stream) for each block of ``maps.BLOCK`` points of a
    Monte Carlo batch of ``take`` points drawing from ``rng``.

    Every draw of a batch is one value per point in point order: point i's
    cell draw sits at stream position i, its jitter at take + i and its
    step-s dither at (2 + s) take + i.  Each ``stream.random(size=None,
    out=None)`` call draws the block's share of one such draw (starting at
    ``lo``), so it must draw ``size`` values, and then skips the other
    ``take - size``.  Given ``stream`` for ``rng``, :func:`sample_from_state`
    and ``orbit_birkhoff_samples`` draw for a block exactly what the whole
    batch would.  The blocks use up ``rng``, a PCG64 Generator."""
    bits = rng.bit_generator
    start = bits.state
    for lo in range(0, take, maps.BLOCK):
        bits.state = start
        bits.advance(lo)
        block = min(maps.BLOCK, take - lo)

        def random(size=None, out=None, skip=take - block):
            drawn = rng.random(size, out=out)
            bits.advance(skip)
            return drawn

        yield lo, block, SimpleNamespace(random=random)


def rng_for(master_seed, *counters):
    """Declared seed-splitting rule: spawn_key = the batch counters."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(c) for c in counters)))


def mc_batches(samples, batch_size, seed, *counters):
    """Yield (start, size, rng) for each batch of a seeded Monte Carlo run.

    Batch b covers samples [start, start + size) and draws from
    ``rng_for(seed, *counters, b)``; the last batch may be short.
    """
    for batch, start in enumerate(range(0, samples, batch_size)):
        yield start, min(batch_size, samples - start), rng_for(seed, *counters, batch)


def mc_map(fn, samples, batch_size, seed, *counters):
    """``[fn(start, size, rng) for each batch of mc_batches]``, in batch order.

    The batches run on one thread per available CPU (at most one per
    batch).  Each draws only from its own ``rng`` and ``fn`` must write
    nothing another batch reads, so the results do not depend on the core
    count.  The batches spend their time in numpy loops that release the
    GIL.
    """
    batches = list(mc_batches(samples, batch_size, seed, *counters))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)       # the CPU set is Linux-only
    workers = min(len(batches), cpus)
    if workers <= 1:
        return [fn(*batch) for batch in batches]
    # Imported here: concurrent.futures costs every job start-up time.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda batch: fn(*batch), batches))


@dataclass(frozen=True)
class CltEmpiricalReport:
    ks_statistic: float
    quantiles: np.ndarray          # (levels, empirical, gaussian)


def birkhoff_sums(m: MapSpec, mu, psi: Callable, n: int, samples: int, seed: int,
                  batch_size: int) -> np.ndarray:
    """S_n(psi) along ``samples`` orbits from samples of the cell masses
    ``mu``, each batch of :func:`mc_map` writing its own slice of the one
    array one block of :func:`block_streams` at a time; bitwise
    reproducible under the seed-splitting rule, whatever ``maps.BLOCK``."""
    sums = np.empty(samples)

    def batch(start, take, rng):
        for lo, size, stream in block_streams(take, rng):
            x = sample_from_state(mu, size, stream)
            sums[start + lo:start + lo + size] = orbit_birkhoff_samples(m, x, n, psi, rng=stream)

    mc_map(batch, samples, batch_size, seed)
    return sums


def clt_empirical(m: MapSpec, mu, psi: Callable,
                  n: int, samples: int, seed: int,
                  variance: VarianceReport, batch_size=1 << 16) -> CltEmpiricalReport:
    """KS distance between the law of S_n(v)/sqrt(n) and N(0, sigma^2).

    sigma^2 and the mean come from the Green-Kubo report ``variance``
    (:func:`clt_variance`); a flagged-coboundary variance is refused.
    The sums come from :func:`birkhoff_sums`, so the result is bitwise
    reproducible.
    """
    # Imported here: scipy.stats costs every job its start-up time and memory.
    from scipy import stats as sps

    if variance.coboundary or variance.sigma2 <= 0:
        raise CoboundaryRefusedError(
            f"sigma^2 = {variance.sigma2:.3e} is flagged as a coboundary: "
            "the CLT normalization is degenerate")
    sigma = math.sqrt(variance.sigma2)
    mean = variance.mean
    centered = lambda z: np.asarray(psi(z), dtype=float) - mean

    vals = birkhoff_sums(m, mu, centered, n, samples, seed, batch_size)
    vals /= math.sqrt(n)

    ks = float(sps.kstest(vals, "norm", args=(0.0, sigma)).statistic)
    levels = (np.arange(QUANTILE_LEVELS) + 1.0) / (QUANTILE_LEVELS + 1.0)
    emp_q = np.quantile(vals, levels)
    gauss_q = sps.norm.ppf(levels, scale=sigma)
    return CltEmpiricalReport(
        ks_statistic=ks,
        quantiles=np.column_stack([levels, emp_q, gauss_q]),
    )
