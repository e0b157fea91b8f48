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
