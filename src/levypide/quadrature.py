"""Quadrature helpers: adaptive Gauss-Kronrod wrappers and tanh-sinh panels.

The adaptive pieces delegate to scipy's QUADPACK with explicit tolerance
accounting; integrands with an algebraic singularity at the origin are
integrated after the substitution z = e^s, which turns |z|^(-a) factors into
smooth exponentials.
"""
from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ToleranceNotMetError

_ABS_FLOOR = 1e-300


def adaptive_quad(f, a: float, b: float, rel_tol: float = 1e-10,
                  abs_tol: float = 1e-14) -> float:
    """Integrate f on [a, b], raising ToleranceNotMetError when the error
    estimate exceeds the requested tolerance."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=300)
    bound = rel_tol * max(abs(val), _ABS_FLOOR) + abs_tol
    if err > max(bound, 10 * abs_tol):
        raise ToleranceNotMetError(
            f"quadrature error estimate {err:.3e} exceeds tolerance on [{a}, {b}]",
            estimate=val, error=err)
    return val


def quad_left_unit(f, rel_tol: float = 1e-10) -> float:
    """Integrate f on (0, 1] via z = e^s; handles integrable power singularities."""
    g = lambda s: f(np.exp(s)) * np.exp(s)
    return adaptive_quad(g, -60.0, 0.0, rel_tol)


def quad_line(f, rel_tol: float = 1e-10, outer=None,
              end: float = np.inf) -> float:
    """Integrate f over (-inf, end], split at 0 and +-1.

    (0, 1] and [-1, 0) go through quad_left_unit; [1, end] and (-inf, -1]
    are adaptive, with the integrand `outer` (f by default) there.  The four
    pieces are summed in that order.
    """
    g = f if outer is None else outer
    return (quad_left_unit(f, rel_tol)
            + quad_left_unit(lambda z: f(-z), rel_tol)
            + adaptive_quad(g, 1.0, end, rel_tol)
            + adaptive_quad(lambda z: g(-z), 1.0, np.inf, rel_tol))


def tanh_sinh_rule(n: int = 120):
    """Nodes/weights of the tanh-sinh rule on (-1, 1), on t in [-3.2, 3.2].

    Double-exponential clustering at the endpoints integrates endpoint
    algebraic singularities to near machine accuracy.
    """
    t = np.linspace(-3.2, 3.2, 2 * n + 1)
    dt = t[1] - t[0]
    st = np.sinh(t) * (np.pi / 2)
    x = np.tanh(st)
    w = dt * (np.pi / 2) * np.cosh(t) / np.cosh(st) ** 2
    keep = 1.0 - np.abs(x) > 1e-17
    return x[keep], w[keep]


def panel_quad(vec_f, a: float, b: float, n: int = 120) -> float:
    """Tanh-sinh panel integral of a vectorized integrand on [a, b]."""
    x, w = tanh_sinh_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(w * vec_f(mid + half * x)))


def panels_quad(vec_f, edges, n: int = 120) -> float:
    """Sum of tanh-sinh panels over consecutive edge pairs."""
    return sum(panel_quad(vec_f, a, b, n) for a, b in zip(edges[:-1], edges[1:]))


def gauss_legendre_panels(edges: np.ndarray, nodes_per_panel: int = 16):
    """Composite Gauss-Legendre nodes/weights over the given panel edges."""
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_panel)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * xg)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)
