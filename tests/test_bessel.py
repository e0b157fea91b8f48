import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from levypide.bessel import (BesselKernel, FractionalNorm, _l1_shift_difference,
                             kernel_eval, modulus_of_continuity_probe,
                             q_estimate_probe, synthetic_bounded_shift,
                             synthetic_smooth_field)
from levypide.errors import ParameterDomainError, SingularityError
from levypide.grids import make_grid


def test_kernel_mass_is_one():
    # measured worst: 1 - 1.5e-13 at order 0.5 on the line, the mass the
    # log-radius rule leaves below r = e^-60
    for order in (0.5, 1.0, 1.6, 2.0):
        for dim in (1, 2):
            m = BesselKernel(order, dim).mass()
            assert abs(m - 1.0) < 1e-12, (order, dim, m)


def test_order_two_line_kernel_closed_form():
    # on the line the order-2 kernel is the two-sided exponential
    for x in (0.25, 1.0, 2.5):
        got = kernel_eval(2.0, 1, x)
        assert abs(got - 0.5 * math.exp(-abs(x))) < 1e-10


def test_order_one_line_kernel_closed_form():
    # order 1 instead has the modified-Bessel-function form K0(|x|)/pi
    for x in (0.25, 1.0, 2.5):
        got = kernel_eval(1.0, 1, x)
        assert abs(got - float(k0(abs(x))) / math.pi) < 1e-10


def test_fourier_symbol_shape():
    kern = BesselKernel(1.2, 1)
    xi = np.array([0.0, 1.0, 3.0])
    got = kern.fourier_symbol(xi)
    want = (1.0 + xi ** 2) ** (-0.6)
    assert np.max(np.abs(got - want)) < 1e-14


def _subordination_integral(order, dim, r):
    """The kernel's defining integral (4 pi)^(-n/2) / Gamma(a/2) times
    int y^(a/2 - n/2 - 1) exp(-y - r^2 / (4y)) dy, after y = e^s, split at
    the integrand's peak and taken to a relative 1e-13."""
    g, q = order / 2.0, r * r / 4.0
    f = lambda s: math.exp(s * (g - dim / 2.0) - math.exp(s) - q * math.exp(-s))
    lo = 2.0 * math.log(r / 2.0) - 40.0
    val = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
              for a, b in ((lo, math.log(r / 2.0)), (math.log(r / 2.0), 7.0)))
    return val / ((4.0 * math.pi) ** (dim / 2.0) * math.gamma(g))


def test_eval_batch_matches_scalar_eval():
    # eval and eval_batch are the K_nu closed form; the reference is the
    # defining integral, computed here.  Measured worst relative gap: 1.5e-14
    # (order 0.8, dim 2, r = 1); the tolerance is 1e-12.
    radii = np.array([1e-12, 1e-6, 0.1, 1.0, 4.0, 20.0, 40.0])
    for order in (0.3, 0.5, 0.8, 1.0, 1.6, 2.0):
        for dim in (1, 2):
            kern = BesselKernel(order, dim)
            batch = kern.eval_batch(radii)
            for r, b in zip(radii, batch):
                want = _subordination_integral(order, dim, r)
                point = np.array([r, 0.0][:dim])
                assert abs(b / want - 1.0) < 1e-12, (order, dim, r)
                assert abs(kern.eval(point) / want - 1.0) < 1e-12, (order, dim, r)


def test_kernel_at_the_origin_is_the_gamma_closed_form():
    # for order > dim the kernel is finite at 0, where eval takes the Gamma
    # closed form (4 pi)^(-dim/2) Gamma(order/2 - dim/2) / Gamma(order/2)
    # instead of the K_nu form; it is the limit of the values near 0
    assert abs(BesselKernel(2.0, 1).eval(0.0) - 0.5) < 1e-15
    kern = BesselKernel(1.6, 1)
    at0 = kern.eval(0.0)
    want = math.gamma(0.3) / math.gamma(0.8) / (2.0 * math.sqrt(math.pi))
    assert abs(at0 - want) < 1e-15
    assert abs(kern.eval(1e-12) / at0 - 1.0) < 1e-6


@pytest.mark.parametrize("order,dim", [(1.0, 1), (0.5, 1), (2.0, 2),
                                       (1.2, 2)])
def test_kernel_of_order_at_most_dim_diverges_at_the_origin(order, dim):
    with pytest.raises(SingularityError, match="diverges at 0"):
        BesselKernel(order, dim).eval(np.zeros(dim))


def test_kernel_order_domain():
    with pytest.raises(ParameterDomainError):
        BesselKernel(0.0, 1)
    with pytest.raises(ParameterDomainError):
        BesselKernel(2.5, 1)


def test_modulus_of_continuity_spreads():
    shifts = np.geomspace(1e-3, 1e-1, 7)
    for alpha in (0.3, 0.5, 0.8):
        rep = modulus_of_continuity_probe(alpha, 1, shifts)
        assert rep.passed
        assert rep.spread < 10.0


def test_modulus_of_continuity_needs_a_shift():
    with pytest.raises(ParameterDomainError, match="at least one sample"):
        modulus_of_continuity_probe(0.5, 1, [])


def _brute_l1_shift(order, h):
    """||G(. + h) - G||_L1 on the line straight from its definition: the
    integrand |G(x + h) - G(x)| in six pieces.  Next to the singular points
    x = 0 and x = -h the distance u to the point is t^(1/order), which
    takes out the u^(order - 1) blow-up; beyond them the tails go to
    +-inf.  Each piece is taken to a relative 1e-13."""
    G = BesselKernel(order, 1)._radial
    p = 1.0 / order

    def near(s, length):
        # the other singular point sits at distance |h + s u|
        f = lambda t: abs(G(t ** p) - G(abs(h + s * t ** p))) * p * t ** (p - 1)
        return quad(f, 0.0, length ** order, epsabs=0.0, epsrel=1e-13,
                    limit=500)[0]

    tail = lambda x: abs(G(x + h) - G(x))
    return (near(1, 1.0) + near(-1, h / 2) + near(-1, h / 2) + near(1, 1.0)
            + quad(tail, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            + quad(lambda x: tail(-x - h), -np.inf, -1.0 - h, epsabs=0.0,
                   epsrel=1e-13, limit=500)[0])


def test_l1_shift_difference_is_the_strip_identity():
    # the identity 2 - 4 int_{h/2}^inf G^(1) against the L1 norm taken from
    # its definition (measured worst relative gap 1.1e-13)
    for order in (0.3, 0.5, 0.8):
        for h in (1e-3, 1e-2, 1e-1):
            got = _l1_shift_difference(BesselKernel(order, 1), h)
            want = _brute_l1_shift(order, h)
            assert abs(got / want - 1.0) < 1e-9, (order, h)
    # the identity holds in 2-D because the plane kernel's x_2-marginal is
    # the line kernel of the same order (measured worst relative gap 1.1e-13)
    for order in (0.3, 0.5, 0.8, 1.6):
        plane, line = BesselKernel(order, 2), BesselKernel(order, 1)
        for x1 in (1e-3, 0.05, 0.5, 2.0, 7.0):
            f = lambda y: plane._radial(math.hypot(x1, y))
            marginal = 2.0 * quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13,
                                  limit=500)[0]
            assert abs(marginal / line._radial(x1) - 1.0) < 1e-12, (order, x1)
    # so the probe reads the same ratios in either dimension
    shifts = np.geomspace(1e-3, 1e-1, 4)
    for order in (0.3, 0.8):
        assert (modulus_of_continuity_probe(order, 1, shifts).detail
                == modulus_of_continuity_probe(order, 2, shifts).detail)


def test_modulus_of_continuity_in_the_plane():
    # in 2-D the L1 shift difference of the order-0.5 kernel, taken from
    # the strip identity through the kernel's x_1-marginal, also scales
    # like |h|^0.5 (measured slope 0.482 over this decade)
    rep = modulus_of_continuity_probe(0.5, 2, [3e-3, 3e-2])
    assert rep.passed
    assert rep.spread < 1.1
    (h1, r1), (h2, r2) = rep.detail
    slope = math.log(r2 * h2 ** 0.5 / (r1 * h1 ** 0.5)) / math.log(h2 / h1)
    assert abs(slope - 0.5) < 0.05


def test_fractional_norm_plane_wave_scaling():
    from levypide.grids import Grid, GridField
    g = Grid(dim=1, half_width=np.pi * 4.0, n_core=512, pad=0)
    k0_mode = 3.0  # exact lattice mode for the pi-multiple pad-free box
    fld = GridField(g, np.cos(k0_mode * g.axis()))
    n_half = FractionalNorm(g, 0.5)(fld)
    zero = FractionalNorm(g, 0.0)
    n_zero = zero(fld)
    want = (1.0 + k0_mode ** 2) ** 0.5
    assert abs(n_half / n_zero - want) < 1e-10
    # gamma = 0 is the plain L2 norm, taken without transforms
    assert n_zero == fld.l2()
    assert zero.transforms.count == 0


def test_fractional_norm_monotone_in_gamma():
    g = make_grid(4.0, 256)
    fld = synthetic_smooth_field(g, 3)
    norms = [FractionalNorm(g, gm)(fld) for gm in (-0.5, 0.0, 0.5, 1.0)]
    assert all(a < b for a, b in zip(norms, norms[1:]))


def test_q_estimate_probe_finite_on_synthetic_family():
    g = make_grid(4.0, 512, reach=0.5)
    gamma = 0.75
    ratios = []
    for idx in range(5):
        u = synthetic_smooth_field(g, idx)
        xi1 = synthetic_bounded_shift(g, idx, 0.2)
        xi2 = synthetic_bounded_shift(g, idx + 7, 0.1)
        r = q_estimate_probe(u, xi1, xi2, gamma)
        assert np.isfinite(r) and r > 0.0
        ratios.append(r)
    assert max(ratios) / min(ratios) < 25.0


def test_synthetic_fields_are_deterministic():
    g = make_grid(4.0, 128)
    a = synthetic_smooth_field(g, 11).values
    b = synthetic_smooth_field(g, 11).values
    assert np.array_equal(a, b)
    s = synthetic_bounded_shift(g, 4, 0.3)
    assert abs(np.max(np.abs(s)) - 0.3) < 1e-14
