import numpy as np
import pytest

from thermoformal import curves as Cv
from thermoformal import observables as O
from thermoformal import operator as T
from thermoformal import statistics as S


def _grid_triples(m, phi, psi, t_max, steps, scheme, n):
    """The triple of every point of ``free_energy_curve``'s t-grid, from one
    batched solve of the tilted potentials on the shared map geometry."""
    g = T.map_geometry(m, scheme, n)
    pots = [phi if t == 0.0 else O.combine(phi, psi, t)
            for t in Cv.symmetric_grid(t_max, steps)]
    W = np.stack([g.weights(pot.fn(g.points)) for pot in pots])
    triples = T.leading_triples(g, W, pots)
    assert all(isinstance(tr, T.SpectralTriple) for tr in triples)
    return triples


@pytest.fixture(scope="session")
def grid_triples():
    """``grid_triples(m, phi, psi, t_max, steps, scheme, n)``: every grid
    point's SpectralTriple, which ``free_energy_curve`` does not keep."""
    return _grid_triples


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpu"])
def cpus(request, monkeypatch):
    """The number of CPUs ``statistics.mc_map`` sees: 1 runs its batches in
    the caller's thread, 2 in a pool of two."""
    monkeypatch.setattr(S.os, "sched_getaffinity",
                        lambda pid, k=request.param: set(range(k)))
    return request.param
