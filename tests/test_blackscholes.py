import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from levypide.blackscholes import BlackScholesClosedForm
from levypide.errors import ParameterDomainError
from levypide.measures import make_kou, make_merton


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


@pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
def test_closed_form_refuses_a_negative_or_non_finite_tau(tau):
    # one named error from every entry that takes tau, never a NaN or a
    # bare math domain error
    bs = BlackScholesClosedForm(100.0, 0.05, 0.2, "put")
    x = np.linspace(-1.0, 1.0, 5)
    for method in (bs.u, bs.du_dx):
        with pytest.raises(ParameterDomainError, match="tau"):
            method(tau, x)
    with pytest.raises(ParameterDomainError, match="tau"):
        bs.live_interval(tau)


@pytest.mark.parametrize("tau", [0.0, 0.02, 0.7])
@pytest.mark.parametrize("measure", [
    make_merton(0.5, -0.1, 0.2), make_kou(0.4, 0.6, 8.0, 4.0),
], ids=["merton", "kou"])
def test_jump_source_matches_adaptive_quadrature(measure, tau):
    # h(tau, x) = int [u(x + z) - u - (e^z - 1) u'] h(z) dz, by adaptive
    # quadrature on pieces split at the kink z = -x (sharp for small tau)
    # and at the Kou density's jump z = 0.  Above the jump radius R the
    # put's e^(x + z) would overflow and the density is below e^-47 of its
    # peak; below -R the put is about K, and this Kou law's tail there is
    # 1e-11 of max |h|, so that side runs to -inf
    put = BlackScholesClosedForm(100.0, 0.05, 0.25, "put")
    x = np.array([-1.5, -0.4, -0.05, 0.0, 0.1, 0.3, 1.2])
    R = measure.jump_radius
    want = []
    for xi in x:
        u, du = float(put.u(tau, xi)), float(put.du_dx(tau, xi))

        def integrand(z):
            return float((put.u(tau, xi + z) - u - math.expm1(z) * du)
                         * measure.density(z))
        edges = [-math.inf, *sorted({-float(xi), 0.0}), R]
        want.append(sum(
            integrate.quad(integrand, a, b, epsabs=1e-14, epsrel=1e-12,
                           limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])))
    want = np.array(want)
    got = put.jump_source(tau, x, measure.family)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the operator annihilates the parity gap: a call has the same source
    call = BlackScholesClosedForm(100.0, 0.05, 0.25, "call")
    assert np.array_equal(call.jump_source(tau, x, measure.family), got)


def test_jump_source_refuses_a_family_without_a_closed_form():
    bs = BlackScholesClosedForm(100.0, 0.05, 0.2)
    with pytest.raises(ParameterDomainError, match="exponential_tail"):
        bs.jump_source(0.5, np.zeros(3), ("exponential_tail", 1.0, 0.5, 3.0))
