"""What the benchmark's layer tracer (``benchmarks/layertrace.py``) needs of
the program: every name it rebinds, and a dense ``TransferMatrix.A`` whose
bytes and nonzeros it counts.  A change that drops either fails here, in the
main suite, and not only in the benchmark's own tests."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("scheme, stored", [("collocation", 1), ("ulam", 2)])
def test_assembly_counts(layertrace, scheme, stored):
    n = 16
    tm = T.build_matrix(M.doubling_map(), O.zero, scheme, n)
    tracer = layertrace.Tracer()
    tracer._count_assemble(tm)
    assert tracer.counts["operator.assemble_calls"] == 1
    assert tracer.counts["operator.matrix_bytes"] == stored * n * n * 8
    assert tracer.counts["operator.stored_entries"] == stored * n * n
    assert tracer.counts["operator.nonzeros"] >= np.count_nonzero(tm.A) > 0
