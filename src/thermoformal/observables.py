"""Observables and potentials on the circle.

A :class:`PotentialSpec` bundles a vectorized callable with the metadata the
admissibility checks need (Hölder exponent, optional derivative).  Map-bound
entries of the library (-log f', coboundaries) take the map at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import SchemaError
from .maps import MapSpec, deriv_at, map_eval, piecewise_polyval, wrap01


@dataclass(frozen=True)
class PotentialSpec:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    alpha: float = 1.0
    d_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    json_obj: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def constant(c):
    c = float(c)
    return PotentialSpec(
        name=f"constant({c:g})",
        fn=lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c),
        d_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        json_obj={"kind": "constant", "params": {"value": c}},
    )


zero = constant(0.0)


def fourier_cos(k=1, amplitude=1.0):
    k = int(k)
    a = float(amplitude)
    return PotentialSpec(
        name=f"{a:g}*cos(2pi*{k}x)" if a != 1.0 else f"cos(2pi*{k}x)",
        fn=lambda x, k=k, a=a: a * np.cos(2 * np.pi * k * np.asarray(x, dtype=float)),
        d_fn=lambda x, k=k, a=a: -2 * np.pi * k * a * np.sin(2 * np.pi * k * np.asarray(x, dtype=float)),
        json_obj={"kind": "fourier_cos", "params": {"k": k, "amplitude": a}},
    )


def fourier_sin(k=1, amplitude=1.0):
    k = int(k)
    a = float(amplitude)
    return PotentialSpec(
        name=f"{a:g}*sin(2pi*{k}x)" if a != 1.0 else f"sin(2pi*{k}x)",
        fn=lambda x, k=k, a=a: a * np.sin(2 * np.pi * k * np.asarray(x, dtype=float)),
        d_fn=lambda x, k=k, a=a: 2 * np.pi * k * a * np.cos(2 * np.pi * k * np.asarray(x, dtype=float)),
        json_obj={"kind": "fourier_sin", "params": {"k": k, "amplitude": a}},
    )


def neg_log_deriv(m: MapSpec, scale=1.0):
    """scale * (-log f'): the geometric potential family, map-bound."""
    if m.derivative is None:
        raise ValueError(f"-log f' needs derivative data; map {m.name} has none")
    s = float(scale)
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
    )


def piecewise_poly(breakpoints, coefficients, name="piecewise_poly"):
    """Piecewise polynomial on [0,1), piece p: sum_k c[p][k] (x - bp[p])^k."""
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0):
        raise SchemaError("breakpoints must be increasing", "observable.params.breakpoints")
    coefs = [np.asarray(c, dtype=float) for c in coefficients]
    if len(coefs) != bp.size - 1:
        raise SchemaError("one coefficient row per piece", "observable.params.coefficients")

    return PotentialSpec(
        name=name,
        fn=lambda x: piecewise_polyval(bp, coefs, wrap01(np.asarray(x, dtype=float))),
        json_obj={"kind": "piecewise_poly",
                  "params": {"breakpoints": bp.tolist(),
                             "coefficients": [c.tolist() for c in coefs]}},
    )


def combine(phi: PotentialSpec, psi: PotentialSpec, t):
    """phi + t * psi, with derivative data when both carry it."""
    t = float(t)
    d_fn = None
    if phi.d_fn is not None and psi.d_fn is not None:
        d_fn = lambda x, p=phi, q=psi, t=t: p.d_fn(x) + t * q.d_fn(x)
    return PotentialSpec(
        name=f"{phi.name} + {t:g}*{psi.name}",
        fn=lambda x, p=phi, q=psi, t=t: p.fn(np.asarray(x, dtype=float)) + t * q.fn(np.asarray(x, dtype=float)),
        alpha=min(phi.alpha, psi.alpha),
        d_fn=d_fn,
        json_obj={"kind": "tilt", "params": {"phi": phi.json_obj, "t": t, "psi": psi.json_obj}},
    )


def shift(psi: PotentialSpec, c):
    return combine(psi, constant(1.0), float(c))


def observable_library():
    """Constructors for the observable catalog, keyed by kind.

    Map-bound kinds (neg_log_deriv, coboundary) require the map argument.
    """
    return {
        "constant": constant,
        "fourier_cos": fourier_cos,
        "fourier_sin": fourier_sin,
        "neg_log_deriv": neg_log_deriv,
        "coboundary": coboundary,
        "piecewise_poly": piecewise_poly,
    }


_PARAM_KEYS = {
    "constant": {"value"},
    "fourier_cos": {"k", "amplitude"},
    "fourier_sin": {"k", "amplitude"},
    "neg_log_deriv": {"scale"},
    "coboundary": {"u"},
    "piecewise_poly": {"breakpoints", "coefficients"},
    "tilt": {"phi", "t", "psi"},
}


def observable_from_json(obj, m: Optional[MapSpec] = None, path="observable"):
    """Build a PotentialSpec from {kind, params}; map-bound kinds need m."""
    if not isinstance(obj, dict):
        raise SchemaError("observable spec must be an object", path)
    kind = obj.get("kind")
    if kind not in _PARAM_KEYS:
        raise SchemaError(f"unknown observable kind {kind!r}", path + ".kind")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("observable params must be an object", path + ".params")
    for key in params:
        if key not in _PARAM_KEYS[kind]:
            raise SchemaError(f"unknown key {key!r}", f"{path}.params.{key}")
    try:
        return _build_observable(kind, params, m, path)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad params for observable {kind!r}: {exc}", path + ".params") from exc


def _build_observable(kind, params, m, path):
    if kind == "constant":
        return constant(params.get("value", 0.0))
    if kind == "fourier_cos":
        return fourier_cos(params.get("k", 1), params.get("amplitude", 1.0))
    if kind == "fourier_sin":
        return fourier_sin(params.get("k", 1), params.get("amplitude", 1.0))
    if kind == "neg_log_deriv":
        if m is None:
            raise SchemaError("neg_log_deriv requires a map", path)
        return neg_log_deriv(m, params.get("scale", 1.0))
    if kind == "coboundary":
        if m is None:
            raise SchemaError("coboundary requires a map", path)
        u = observable_from_json(params.get("u"), m, path + ".params.u")
        return coboundary(u, m)
    if kind == "piecewise_poly":
        return piecewise_poly(params.get("breakpoints"), params.get("coefficients"))
    # the remaining kind is "tilt"
    phi = observable_from_json(params.get("phi"), m, path + ".params.phi")
    psi = observable_from_json(params.get("psi"), m, path + ".params.psi")
    return combine(phi, psi, params.get("t", 0.0))
