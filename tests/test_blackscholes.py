import math

import numpy as np
import pytest
from scipy.special import ndtr

from levypide.blackscholes import BlackScholesClosedForm, _ndtr


def test_saturation_aware_ndtr_is_bit_identical():
    a = np.linspace(-60.0, 60.0, 1_200_001)
    assert np.array_equal(_ndtr(a), ndtr(a))
    # the cut-offs, their neighbours and the points where ndtr saturates
    edges = np.array([-39.0, np.nextafter(-39.0, 0.0), -38.0, -37.0, 8.3,
                      np.nextafter(9.0, 0.0), 9.0, 0.0, -0.0])
    assert np.array_equal(_ndtr(edges), ndtr(edges))
    block = a[:-1].reshape(1200, 1000)
    assert np.array_equal(_ndtr(block), ndtr(block))
    special = np.array([np.nan, np.inf, -np.inf, 1.0])
    assert np.array_equal(_ndtr(special), ndtr(special), equal_nan=True)
    for s in (-40.0, -39.0, -1.5, 0.0, 8.5, 9.0, 12.0, math.inf, -math.inf):
        assert _ndtr(s) == ndtr(s)
    assert math.isnan(_ndtr(math.nan))


@pytest.mark.parametrize("option_type", ["call", "put"])
def test_closed_form_bits_match_plain_ndtr(option_type):
    K, r = 100.0, 0.05
    bs = BlackScholesClosedForm(K, r, 0.2, option_type)
    x = np.linspace(-12.0, 12.0, 4001)
    for tau in (1e-4, 0.002, 0.1, 1.0, 5.0):
        d1, d2 = bs._d12(tau, x)
        fwd = K * np.exp(x + r * tau)
        if option_type == "call":
            u, du = fwd * ndtr(d1) - K * ndtr(d2), fwd * ndtr(d1)
        else:
            u, du = K * ndtr(-d2) - fwd * ndtr(-d1), -fwd * ndtr(-d1)
        assert np.array_equal(bs.u(tau, x), u)
        assert np.array_equal(bs.du_dx(tau, x), du)
        # (nodes, n) blocks, as the analytic source passes them
        block = x.reshape(1, -1) + np.array([[-0.3], [0.0], [0.4]])
        assert np.array_equal(bs.u(tau, block)[1], u)


@pytest.mark.parametrize("option_type", ["call", "put"])
def test_closed_form_is_saturated_outside_the_live_interval(option_type):
    K, r = 100.0, 0.05
    bs = BlackScholesClosedForm(K, r, 0.2, option_type)
    x = np.linspace(-12.0, 12.0, 24001)
    tiny = ndtr(-9.0) * K
    for tau in (1e-4, 0.002, 0.05, 0.5, 1.0, 5.0):
        lo, hi, below, above = bs.live_interval(tau)
        assert lo < 0.0 < hi
        fwd = K * np.exp(x + r * tau)
        u, du = bs.u(tau, x), bs.du_dx(tau, x)
        # one side is c0 + c1 e^x bit for bit, the other below ndtr(-9) K
        if option_type == "call":
            affine, small, sign = x > hi, x < lo, 1.0
        else:
            affine, small, sign = x < lo, x > hi, -1.0
        assert np.array_equal(u[affine], sign * (fwd[affine] - K))
        assert np.array_equal(du[affine], sign * fwd[affine])
        assert np.all(np.abs(u[small]) <= tiny)
        assert np.all(np.abs(du[small]) <= tiny)
        assert affine.any() and small.any()
    assert bs.live_interval(0.0)[:2] == (0.0, 0.0)


@pytest.mark.parametrize("option_type", ["call", "put"])
def test_side_profiles_reproduce_the_closed_form_on_their_sides(option_type):
    x = np.linspace(-12.0, 12.0, 24001)
    for K in (1.0, 37.3, 100.0):
        bs = BlackScholesClosedForm(K, 0.05, 0.2, option_type)
        for tau in (0.0, 1e-4, 0.002, 0.05, 0.5, 1.0, 5.0):
            lo, hi, below, above = bs.live_interval(tau)
            u = bs.u(tau, x)
            for side, (c0, c1) in ((x < lo, below), (x > hi, above)):
                grown = np.abs(c1) * np.exp(x[side])
                gap = np.abs(c0 + c1 * np.exp(x[side]) - u[side])
                # the put's sides are bounded by K; the call's growing side
                # rounds e^{x + r tau} against e^{r tau} e^x, a few ulps of
                # its own size
                assert np.all(gap <= 4e-16 * K + 1e-15 * grown), (K, tau)
                if option_type == "put":
                    assert np.all(gap <= 4e-16 * K), (K, tau)
    put = BlackScholesClosedForm(2.0, 0.05, 0.2, "put")
    call = BlackScholesClosedForm(2.0, 0.05, 0.2, "call")
    assert put.live_interval(0.0)[2:] == ((2.0, -2.0), (0.0, 0.0))
    assert call.live_interval(0.0)[2:] == ((0.0, 0.0), (-2.0, 2.0))
