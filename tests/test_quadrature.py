import math

import numpy as np

from levypide.quadrature import (adaptive_quad, gauss_legendre_panels,
                                 panel_quad, panels_quad, quad_left_unit,
                                 quad_line, tanh_sinh_rule)


def test_gaussian_full_line():
    got = quad_line(lambda z: math.exp(-z * z))
    assert abs(got - math.sqrt(math.pi)) < 1e-12


def test_exponential_half_line():
    # zero on the negative side; the outer pieces take their own integrand
    # and the positive one stops at end
    f = lambda z: math.exp(-3.0 * z) if z > 0 else 0.0
    got = quad_line(f)
    assert abs(got - 1.0 / 3.0) < 1e-12
    cut = quad_line(f, outer=lambda z: 2.0 * f(z), end=2.0)
    want = 1.0 / 3.0 + (math.exp(-3.0) - 2.0 * math.exp(-6.0)) / 3.0
    assert abs(cut - want) < 1e-12


def test_inverse_sqrt_endpoint_singularity():
    # integrable singularity at 0: int_0^1 z^(-1/2) dz = 2
    got = quad_left_unit(lambda z: 1.0 / math.sqrt(z))
    assert abs(got - 2.0) < 1e-8


def test_adaptive_quad_matches_closed_form_on_finite_interval():
    got = adaptive_quad(lambda z: math.cos(2.0 * z), 0.0, 1.5)
    assert abs(got - 0.5 * math.sin(3.0)) < 1e-12


def test_tanh_sinh_log_singularity():
    x, w = tanh_sinh_rule()
    # int_{-1}^{1} -log((1+x)/2) dx = 2
    got = float(np.sum(w * (-np.log((1.0 + x) / 2.0))))
    assert abs(got - 2.0) < 1e-12


def test_panel_quad_smooth():
    got = panel_quad(lambda z: np.exp(-z), 0.0, 2.0)
    assert abs(got - (1.0 - math.exp(-2.0))) < 1e-13


def test_panels_quad_splits_cleanly():
    edges = [0.0, 0.7, 2.0]
    got = panels_quad(lambda z: np.exp(-z), edges)
    assert abs(got - (1.0 - math.exp(-2.0))) < 1e-13


def test_gauss_legendre_panels_polynomial_exactness():
    edges = np.array([-1.0, 0.25, 0.9, 2.0])
    nodes, weights = gauss_legendre_panels(edges, nodes_per_panel=8)
    # degree 7 polynomial is integrated exactly by 8-node Gauss panels
    coeffs = np.array([1.0, -2.0, 0.5, 3.0, 0.0, -1.0, 2.0, 0.25])
    vals = np.polyval(coeffs, nodes)
    anti = np.polyint(coeffs)
    exact = np.polyval(anti, 2.0) - np.polyval(anti, -1.0)
    assert abs(float(np.sum(weights * vals)) - exact) < 1e-12


def test_gauss_legendre_panel_weights_positive_and_cover():
    edges = np.array([0.0, 1.0, 4.0])
    nodes, weights = gauss_legendre_panels(edges)
    assert np.all(weights > 0)
    assert abs(float(np.sum(weights)) - 4.0) < 1e-12
    assert np.all((nodes > 0.0) & (nodes < 4.0))
