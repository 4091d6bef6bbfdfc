"""Observables and potentials on the circle.

A :class:`PotentialSpec` bundles a vectorized callable with the metadata the
admissibility checks need (its Hölder exponent).  Map-bound
kinds (-log f', coboundaries) take the map at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteObservableError, SchemaError
from .maps import (MapSpec, check_keys, deriv_at, is_number, map_eval, number_row,
                   number_rows, piecewise_polyval, whole_number, wrap01)


@dataclass(frozen=True)
class PotentialSpec:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    alpha: float = 1.0
    json_obj: dict = field(default_factory=dict)
    evals: int = 1                  # leaf evaluations per call

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _number(key, val, integer=False):
    """``val`` as a float, or as an int if ``integer`` (2.0 is taken as 2);
    ValueError for any other value (True is no number)."""
    out = whole_number(val) if integer else float(val) if is_number(val) else None
    if out is None:
        raise ValueError(f"{key} must be {'an integer' if integer else 'a number'}, got {val!r}")
    return out


def constant(value=0.0):
    c = _number("value", value)
    return PotentialSpec(
        name=f"constant({c:g})",
        fn=lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c),
        json_obj={"kind": "constant", "params": {"value": c}},
    )


zero = constant(0.0)


def fourier_cos(k=1, amplitude=1.0):
    k = _number("k", k, integer=True)
    a = _number("amplitude", amplitude)
    return PotentialSpec(
        name=f"{a:g}*cos(2pi*{k}x)" if a != 1.0 else f"cos(2pi*{k}x)",
        fn=lambda x, k=k, a=a: a * np.cos(2 * np.pi * k * np.asarray(x, dtype=float)),
        json_obj={"kind": "fourier_cos", "params": {"k": k, "amplitude": a}},
    )


def fourier_sin(k=1, amplitude=1.0):
    k = _number("k", k, integer=True)
    a = _number("amplitude", amplitude)
    return PotentialSpec(
        name=f"{a:g}*sin(2pi*{k}x)" if a != 1.0 else f"sin(2pi*{k}x)",
        fn=lambda x, k=k, a=a: a * np.sin(2 * np.pi * k * np.asarray(x, dtype=float)),
        json_obj={"kind": "fourier_sin", "params": {"k": k, "amplitude": a}},
    )


def neg_log_deriv(m: MapSpec, scale=1.0):
    """scale * (-log f'): the geometric potential family, map-bound."""
    if m.derivative is None:
        raise ValueError(f"-log f' needs derivative data; map {m.name} has none")
    s = _number("scale", scale)
    return PotentialSpec(
        name=f"{s:g}*(-log f') [{m.name}]",
        fn=lambda x, m=m, s=s: -s * np.log(deriv_at(m, x)),
        json_obj={"kind": "neg_log_deriv", "params": {"scale": s}},
    )


def coboundary(u: PotentialSpec, m: MapSpec):
    """u o f - u: the canonical zero-variance observable for f."""
    return PotentialSpec(
        name=f"coboundary[{u.name}; {m.name}]",
        fn=lambda x, u=u, m=m: u.fn(map_eval(m, x)) - u.fn(wrap01(np.asarray(x, dtype=float))),
        alpha=u.alpha,
        json_obj={"kind": "coboundary", "params": {"u": u.json_obj}},
        evals=2 * u.evals,
    )


def piecewise_poly(breakpoints, coefficients, name="piecewise_poly"):
    """Piecewise polynomial on [0,1), piece p: sum_k c[p][k] (x - bp[p])^k."""
    bp = number_row(breakpoints)
    if bp is None or bp.size < 2 or np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be increasing numbers")
    coefs = number_rows(coefficients)
    if coefs is None:
        raise ValueError("coefficients must be a list of flat rows of numbers")
    if len(coefs) != bp.size - 1:
        raise ValueError("coefficients must have one row per piece")

    return PotentialSpec(
        name=name,
        fn=lambda x: piecewise_polyval(bp, coefs, wrap01(np.asarray(x, dtype=float))),
        json_obj={"kind": "piecewise_poly",
                  "params": {"breakpoints": bp.tolist(),
                             "coefficients": [c.tolist() for c in coefs]}},
    )


def finite_values(obs, x, error=NonFiniteObservableError):
    """``obs(x)`` as floats, checked to be finite.

    ``obs`` is a PotentialSpec or a plain callable.  A value that is not
    finite (including one that overflows while it is evaluated, which
    gives no numpy warning here) raises ``error``, naming the observable,
    the first such value and its point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(obs(x), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        name = obs.name if isinstance(obs, PotentialSpec) else getattr(obs, "__name__", "obs")
        raise error(f"observable {name} is not finite on the grid: "
                    f"{vals.flat[i]} at x = {np.broadcast_to(x, vals.shape).flat[i]}")
    return vals


def combine(phi: PotentialSpec, psi: PotentialSpec, t):
    """phi + t * psi."""
    t = _number("t", t)
    return PotentialSpec(
        name=f"{phi.name} + {t:g}*{psi.name}",
        fn=lambda x, p=phi, q=psi, t=t: p.fn(np.asarray(x, dtype=float)) + t * q.fn(np.asarray(x, dtype=float)),
        alpha=min(phi.alpha, psi.alpha),
        json_obj={"kind": "tilt", "params": {"phi": phi.json_obj, "t": t, "psi": psi.json_obj}},
        evals=phi.evals + psi.evals,
    )


#: Largest number of leaf evaluations (``PotentialSpec.evals``) per call of
#: an observable spec; a chain of d coboundaries makes 2^d.
MAX_EVALS = 64

#: Each observable kind: its parameter keys, whether it needs the map, and its
#: builder (params, map, part), where part(key) builds the spec at params[key].
_KINDS = {
    "constant": ({"value"}, False, lambda p, m, part: constant(**p)),
    "fourier_cos": ({"k", "amplitude"}, False, lambda p, m, part: fourier_cos(**p)),
    "fourier_sin": ({"k", "amplitude"}, False, lambda p, m, part: fourier_sin(**p)),
    "neg_log_deriv": ({"scale"}, True, lambda p, m, part: neg_log_deriv(m, **p)),
    "coboundary": ({"u"}, True, lambda p, m, part: coboundary(part("u"), m)),
    "piecewise_poly": ({"breakpoints", "coefficients"}, False,
                       lambda p, m, part: piecewise_poly(**p)),
    "tilt": ({"phi", "t", "psi"}, False,
             lambda p, m, part: combine(part("phi"), part("psi"), p.get("t", 0.0))),
}


def observable_from_json(obj, m: Optional[MapSpec] = None, path="observable"):
    """Build a PotentialSpec from {kind, params}; map-bound kinds need m.  A
    spec of more than MAX_EVALS leaf evaluations is rejected at its path."""
    if not isinstance(obj, dict):
        raise SchemaError("observable spec must be an object", path)
    check_keys(obj, {"kind", "params"}, path)
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown observable kind {kind!r}", path + ".kind")
    keys, map_bound, build = _KINDS[kind]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("observable params must be an object", path + ".params")
    check_keys(params, keys, path + ".params")
    if map_bound and m is None:
        raise SchemaError(f"{kind} requires a map", path)
    try:
        spec = build(params, m, lambda key: observable_from_json(
            params.get(key), m, f"{path}.params.{key}"))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad params for observable {kind!r}: {exc}", path + ".params") from exc
    if spec.evals > MAX_EVALS:
        raise SchemaError(f"makes {spec.evals} leaf evaluations, more than {MAX_EVALS}", path)
    return spec
