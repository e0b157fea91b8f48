"""Quadrature helpers: adaptive Gauss-Kronrod wrappers and Gauss-Legendre panels.

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


def quad_left_unit(f) -> float:
    """Integrate f on (0, 1] via z = e^s; handles integrable power singularities."""
    g = lambda s: f(np.exp(s)) * np.exp(s)
    return adaptive_quad(g, -60.0, 0.0)


def quad_line(f, outer=None, end: float = np.inf) -> float:
    """Integrate f over (-inf, end], split at 0 and +-1.

    (0, 1] and [-1, 0) go through quad_left_unit; [1, end] and (-inf, -1]
    are adaptive, with the integrand `outer` (f by default) there.  The four
    pieces are summed in that order.
    """
    g = f if outer is None else outer
    return (quad_left_unit(f) + quad_left_unit(lambda z: f(-z))
            + adaptive_quad(g, 1.0, end)
            + adaptive_quad(lambda z: g(-z), 1.0, np.inf))


def gauss_legendre_panels(edges: np.ndarray):
    """Composite 16-node Gauss-Legendre nodes and weights on panel edges."""
    xg, wg = np.polynomial.legendre.leggauss(16)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * xg)
        weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)
