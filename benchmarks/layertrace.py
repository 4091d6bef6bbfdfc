"""Outside-in layer trace for the benchmark's traced runs.

The program itself is not touched.  ``Tracer.install`` rebinds each name
that one ``thermoformal`` module imports from another (``operator`` calling
``maps.branch_preimages``, ``curves`` calling ``operator.leading_triple``,
``cli`` calling ``curves.free_energy_curve``, ...) to a timing wrapper.  A
call through a rebound name records a span ``[name, start, end, parent]``
and updates the layer's counters.  Spans stay in memory; the child process
writes them out when the job ends.

A layer's self time is its spans' durations minus the part their child
spans cover.  The ``*_s`` metrics time the calls their layer names, child
spans included, except ``operator.assemble_s``, ``curves.self_s`` and
``parallel.map_s``, which are self times.  So ``maps.orbit_s`` includes the
potential evaluations made along the orbits, and ``certify.condition_s`` the
branch inversions the certificate makes.  Calls inside one module (such as
``maps.branch_preimages`` calling ``maps._invert_lift``) are not rebound and
count toward the caller.  ``leading_triple`` cannot be split from outside
into its primitivity check, power iteration and gap estimate.

Spans nest on one stack, so traced jobs must run their grid points on one
thread (``THERMOFORMAL_WORKERS`` unset, as the benchmark runs them).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from collections import Counter, defaultdict

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
METRICS = {
    "operator.solve_s": "s",
    "operator.solve_calls": "count",
    "operator.power_iterations": "count",
    "operator.assemble_s": "s",
    "operator.assemble_calls": "count",
    "operator.matrix_bytes": "bytes",
    "operator.nnz_fraction": "ratio",
    "maps.invert_s": "s",
    "maps.invert_points": "count",
    "maps.invert_useful_ratio": "ratio",
    "maps.orbit_s": "s",
    "maps.orbit_steps": "count",
    "maps.orbit_steps_per_s": "1/s",
    "statistics.sample_s": "s",
    "statistics.sample_points": "count",
    "observables.eval_s": "s",
    "observables.eval_points": "count",
    "certify.condition_s": "s",
    "certify.cells": "count",
    "curves.self_s": "s",
    "curves.grid_points": "count",
    "parallel.map_s": "s",
    "cli.import_s": "s",
    "cli.validate_s": "s",
    "cli.write_s": "s",
    "cli.artifact_bytes": "bytes",
}

# (module, name the module imported from another one, span name, counter)
_REBIND = (
    ("operator", "branch_preimages", "maps.invert", "_count_preimages"),
    ("operator", "_invert_lift", "maps.invert", "_count_lift"),
    ("certify", "branch_preimages", "maps.invert", "_count_preimages"),
    ("curves", "build_matrix", "operator.assemble", "_count_assemble"),
    ("cli", "build_matrix", "operator.assemble", "_count_assemble"),
    ("curves", "leading_triple", "operator.solve", "_count_solve"),
    ("cli", "leading_triple", "operator.solve", "_count_solve"),
    ("curves", "check_condition_C", "certify.condition", "_count_condition"),
    ("curves", "orbit_birkhoff_samples", "maps.orbit", "_count_orbit"),
    ("statistics", "orbit_birkhoff_samples", "maps.orbit", "_count_orbit"),
    ("curves", "sample_from_state", "statistics.sample", "_count_sample"),
    ("curves", "ordered_map", "parallel.map", None),
    # cli reaches these through ``curves_mod.<name>``
    ("curves", "free_energy_curve", "curves", "_count_t_grid"),
    ("curves", "rate_function", "curves", None),
    ("curves", "ldp_empirical", "curves", None),
    ("curves", "response_scan", "curves", "_count_v_grid"),
    ("cli", "write_csv", "cli.write", None),
    ("cli", "dumps_summary", "cli.write", None),
)

# Span recorded around the bookkeeping of counters, so that it is not
# charged to the caller's self time.
_BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Span recorder plus per-layer counters for one traced job."""

    def __init__(self):
        self.spans = []                      # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        # (how, solves per input, map json) -> inputs inverted
        self._inverted = defaultdict(set)
        self._saved = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span ``name`` per call; ``count(result, *args)``
        updates the counters after the span closes."""

        def traced(*args, **kwargs):
            result = self._timed(name, fn, args, kwargs)
            if count is not None:
                self._timed(_BOOKKEEPING, count, (result,) + args, kwargs)
            return result

        return traced

    def _timed(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Rebind the cross-module names of ``thermoformal`` to traced wrappers."""
        for mod_name, attr, span_name, counter in _REBIND:
            mod = importlib.import_module(f"thermoformal.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span_name, fn, counter and getattr(self, counter)))
        cli = importlib.import_module("thermoformal.cli")
        self._saved.append((cli, "observable_from_json", cli.observable_from_json))
        setattr(cli, "observable_from_json", self._traced_observables(cli.observable_from_json))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _traced_observables(self, build):
        """Potentials built by the CLI get a traced ``fn``."""

        def count(result, x, *args, **kwargs):
            self.counts["observables.eval_points"] += result.size

        def traced(*args, **kwargs):
            spec = build(*args, **kwargs)
            return dataclasses.replace(spec, fn=self.wrap("observables.eval", spec.fn, count))

        return traced

    # -- counters ----------------------------------------------------------

    def _count_preimages(self, result, m, x, *args, **kwargs):
        # One solve per preimage; an input already inverted for the same
        # map is wasted work.
        self.counts["maps.invert_points"] += result.size
        self._inverted[("preimages", m.degree, _map_key(m))].update(_floats(x))

    def _count_lift(self, result, m, t, *args, **kwargs):
        self.counts["maps.invert_points"] += result.size
        self._inverted[("lift", 1, _map_key(m))].update(_floats(t))

    def _count_assemble(self, tm, *args, **kwargs):
        import numpy as np
        self.counts["operator.assemble_calls"] += 1
        for arr in (tm.A, tm.transport):
            if arr is not None:
                self.counts["operator.matrix_bytes"] += arr.nbytes
                self.counts["operator.nonzeros"] += int(np.count_nonzero(arr))
                self.counts["operator.stored_entries"] += arr.size

    def _count_solve(self, triple, *args, **kwargs):
        self.counts["operator.solve_calls"] += 1
        self.counts["operator.power_iterations"] += triple.iterations

    def _count_condition(self, report, *args, **kwargs):
        self.counts["certify.cells"] += report.resolution

    def _count_orbit(self, totals, m, x0, n, *args, **kwargs):
        self.counts["maps.orbit_steps"] += totals.size * int(n)

    def _count_sample(self, points, *args, **kwargs):
        self.counts["statistics.sample_points"] += points.size

    def _count_t_grid(self, curve, *args, **kwargs):
        self.counts["curves.grid_points"] += curve.t.size

    def _count_v_grid(self, scan, *args, **kwargs):
        self.counts["curves.grid_points"] += scan.v.size

    def unique_inverted(self):
        return sum(weight * len(xs) for (_, weight, _), xs in self._inverted.items())

    def dump(self):
        """JSON-ready record of the spans and counters."""
        counts = dict(self.counts)
        counts["maps.invert_unique"] = self.unique_inverted()
        return {"spans": self.spans, "counts": counts}


def _map_key(m):
    from thermoformal.maps import map_to_json
    return json.dumps(map_to_json(m), sort_keys=True)


def _floats(x):
    import numpy as np
    return np.atleast_1d(np.asarray(x, dtype=float)).ravel().tolist()


def self_times(spans):
    """Self time per span name: duration minus the time child spans cover.

    Spans of one thread nest, so the children of a span are disjoint.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return out


def total_times(spans):
    """Time per span name counting only the outermost span of each nest."""
    names = [s[0] for s in spans]
    out = defaultdict(float)
    for name, start, end, parent in spans:
        if parent is None or names[parent] != name:
            out[name] += end - start
    return out


def layer_metrics(trace, import_s, validate_s, artifact_bytes):
    """Per-layer metrics of one traced job, keyed as in ``METRICS``."""
    own = self_times(trace["spans"])
    total = total_times(trace["spans"])
    c = Counter(trace["counts"])

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "operator.solve_s": total["operator.solve"],
        "operator.solve_calls": c["operator.solve_calls"],
        "operator.power_iterations": c["operator.power_iterations"],
        "operator.assemble_s": own["operator.assemble"],
        "operator.assemble_calls": c["operator.assemble_calls"],
        "operator.matrix_bytes": c["operator.matrix_bytes"],
        "operator.nnz_fraction": ratio(c["operator.nonzeros"], c["operator.stored_entries"]),
        "maps.invert_s": total["maps.invert"],
        "maps.invert_points": c["maps.invert_points"],
        "maps.invert_useful_ratio": ratio(c["maps.invert_unique"], c["maps.invert_points"]),
        "maps.orbit_s": total["maps.orbit"],
        "maps.orbit_steps": c["maps.orbit_steps"],
        "maps.orbit_steps_per_s": ratio(c["maps.orbit_steps"], total["maps.orbit"]),
        "statistics.sample_s": total["statistics.sample"],
        "statistics.sample_points": c["statistics.sample_points"],
        "observables.eval_s": total["observables.eval"],
        "observables.eval_points": c["observables.eval_points"],
        "certify.condition_s": total["certify.condition"],
        "certify.cells": c["certify.cells"],
        "curves.self_s": own["curves"],
        "curves.grid_points": c["curves.grid_points"],
        "parallel.map_s": own["parallel.map"],
        "cli.import_s": import_s,
        "cli.validate_s": validate_s,
        "cli.write_s": total["cli.write"],
        "cli.artifact_bytes": artifact_bytes,
    }
