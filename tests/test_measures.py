import math

import numpy as np
import pytest

from levypide import measures
from levypide.errors import ParameterDomainError
from levypide.grids import make_grid
from levypide.jump_operator import build_plan
from levypide.measures import (LevyMeasure, ShapeParams, check_admissibility,
                               compensated_exp_term, levy_exponent, levy_pair,
                               make_exponential_tail, make_kou, make_merton,
                               moments)


def test_merton_total_mass_is_intensity():
    for lam, m, s in [(1.0, 0.0, 1.0), (0.5, -0.1, 0.2), (2.3, 0.4, 0.35)]:
        mom = moments(make_merton(lam, m, s))
        assert abs(mom.total_mass - lam) < 1e-9 * lam


def test_merton_compensated_exp_moment_closed_form():
    mom = moments(make_merton(1.0, 0.1, 0.2))
    want = math.exp(0.1 + 0.02) - 1.0 - 0.1
    assert abs(mom.compensated_exp_moment - want) < 1e-10


def test_symmetric_merton_mean_jump_vanishes():
    mom = moments(make_merton(1.0, 0.0, 1.0))
    assert abs(float(mom.mean_jump[0])) < 1e-12


def test_kou_total_mass_and_compensator():
    meas = make_kou(1.0, 0.5, 3.0, 3.0)
    mom = moments(meas)
    assert abs(mom.total_mass - 1.0) < 1e-10
    # int (e^z - 1 - z) h dz for the symmetric double exponential:
    # p eta/(eta-1) + (1-p) eta/(eta+1) - 1 = 0.5*(3/2) + 0.5*(3/4) - 1
    want = 0.5 * 3.0 / 2.0 + 0.5 * 3.0 / 4.0 - 1.0
    assert abs(mom.compensated_exp_moment - want) < 1e-10
    assert abs(want - 0.125) < 1e-15


def test_kou_compensator_is_finite_when_the_cutoff_passes_exp_overflow():
    # envelope decay d = 2 puts the e^z cutoff near 740, past where e^z
    # overflows; h has underflowed there, so the integrand is 0, not nan
    mom = moments(make_kou(1.0, 0.4, 3.0, 2.0))
    want = 0.4 * 3.0 / 2.0 + 0.6 * 2.0 / 3.0 - 1.0 - (0.4 / 3.0 - 0.6 / 2.0)
    assert abs(mom.compensated_exp_moment - want) < 1e-10


def test_a_measure_without_an_e_z_moment_skips_its_quadrature(monkeypatch):
    # pins the shape-decided divergence: decay 0.8 < 1 and no Gaussian taper,
    # so int e^z h diverges; the moment is inf and no integrand is evaluated
    meas = make_exponential_tail(1.0, 0.5, 0.8)
    assert not meas.has_exp_moment
    calls = []
    monkeypatch.setattr(measures, "compensated_exp_term",
                        lambda *a: calls.append(a))
    mom = moments(meas)
    assert mom.compensated_exp_moment == np.inf and calls == []
    # the total mass c0 * 2 Gamma(1 - alpha) d^(alpha - 1) is still finite
    want = 2.0 * math.gamma(0.5) * 0.8 ** -0.5
    assert abs(mom.total_mass / want - 1.0) < 1e-10


@pytest.mark.parametrize("z", [700.5, 720.0, 760.0])
def test_compensated_exp_term_past_exp_overflow(z):
    # pins the branch above z = 700: e^z alone overflows at 709.8, but
    # e^z h stays finite as exp(z + log h)
    hz = 1e-300
    got = compensated_exp_term(z, hz)
    assert got == math.exp(z + math.log(hz)) - (1.0 + z) * hz
    assert math.isfinite(got)
    assert abs(got / math.exp(z - 300.0 * math.log(10.0)) - 1.0) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_exponential_tail_compensated_exp_moment_closed_form(alpha):
    # int (e^z - 1 - z) c0 |z|^-alpha e^-d|z| dz over the line; at alpha = 2.5
    # the integrand ~ |z|^-0.5 / 2 near 0 needs e^z - 1 - z to full
    # relative accuracy there
    c0, d = 1.0, 3.0
    want = c0 * math.gamma(1.0 - alpha) * ((d - 1.0) ** (alpha - 1.0)
                                           + (d + 1.0) ** (alpha - 1.0)
                                           - 2.0 * d ** (alpha - 1.0))
    got = moments(make_exponential_tail(c0, alpha, d)).compensated_exp_moment
    assert abs(got - want) <= 1e-12 * abs(want)


def test_kou_requires_eta_plus_above_one():
    with pytest.raises(ParameterDomainError):
        make_kou(1.0, 0.5, 0.9, 3.0)


NAN = math.nan


@pytest.mark.parametrize("build,name", [
    (lambda: make_merton(NAN, -0.1, 0.2), "intensity"),
    (lambda: make_merton(0.5, NAN, 0.2), "jump_mean"),
    (lambda: make_merton(0.5, -0.1, NAN), "jump_std"),
    (lambda: make_kou(NAN, 0.6, 8.0, 4.0), "intensity"),
    (lambda: make_kou(0.4, NAN, 8.0, 4.0), "p_up"),
    (lambda: make_kou(0.4, 0.6, NAN, 4.0), "eta_plus"),
    (lambda: make_kou(0.4, 0.6, 8.0, NAN), "eta_minus"),
    (lambda: make_kou(0.4, 0.6, 8.0, math.inf), "eta_minus"),
    (lambda: make_exponential_tail(NAN, 0.5, 3.0), "c0"),
    (lambda: make_exponential_tail(1.0, NAN, 3.0), "alpha"),
    (lambda: make_exponential_tail(1.0, 0.5, NAN), "decay"),
    (lambda: ShapeParams(1.0, 0.0, 0.0, NAN), "mu"),
    (lambda: ShapeParams(1.0, 0.0, NAN, 1.0), "d"),
])
def test_nan_jump_parameters_are_domain_errors_naming_them(build, name):
    # NaN passes a `<=` check; every factory check is written as `not ...`
    with pytest.raises(ParameterDomainError, match=f"^{name} must"):
        build()


@pytest.mark.parametrize("build,message", [
    # s^2 underflows to 0, and (2 pi s^2)^(-1/2) used to divide by it
    (lambda: make_merton(0.5, -0.1, 1e-200), "^jump_std must"),
    # e^(m^2 / (2 s^2)) in the envelope constant c0 used to overflow
    (lambda: make_merton(0.5, 30.0, 0.2), "^c0 overflows"),
    # e^(m + s^2/2), the e^z moment the Merton series oracle compounds,
    # used to overflow only in the oracle, after the whole solve
    (lambda: make_merton(0.5, -0.1, 1e150), "^e\\^z moment .* overflows"),
    (lambda: make_merton(0.5, 710.0, 30.0), "^e\\^z moment .* overflows"),
    # r^(-alpha) used to overflow in the tail-radius search
    (lambda: make_exponential_tail(1.0, -1e300, 3.0).jump_radius,
     "^envelope overflows"),
])
def test_extreme_finite_jump_parameters_are_domain_errors(build, message):
    with pytest.raises(ParameterDomainError, match=message):
        build()


def test_exponential_tail_activity_flags():
    finite = make_exponential_tail(1.0, 0.5, 2.0)
    assert finite.finite_activity
    assert finite.finite_variation
    rough = make_exponential_tail(1.0, 1.5, 2.0)
    assert not rough.finite_activity
    assert rough.finite_variation
    assert rough.has_exp_moment  # decay 2.0 > 1 keeps e^z integrable


def test_admissibility_constructed_shape_holds():
    meas = make_merton(1.0, 0.0, 1.0)
    z = np.linspace(-10.0, 10.0, 401)
    z = z[z != 0.0]
    rep = check_admissibility(meas, z)
    assert rep.holds
    assert rep.worst_ratio <= 1.0 + 1e-12


def test_admissibility_rejects_overtight_gaussian_rate():
    # claiming quadratic decay rate mu=1 against a standard normal density
    # (true rate 1/2) must fail far out in the tail
    base = make_merton(1.0, 0.0, 1.0)
    wrong = LevyMeasure(base.density, 1,
                        ShapeParams(c0=base.shape.c0, alpha=0.0, d=0.0, mu=1.0))
    z = np.linspace(-10.0, 10.0, 401)
    z = z[z != 0.0]
    rep = check_admissibility(wrong, z)
    assert not rep.holds
    assert rep.worst_ratio > 1.0


def test_admissibility_of_a_planar_density():
    # the 2-D branch samples points, not a line: the built envelope of a
    # planar Merton density holds, and a Gaussian rate claimed twice too
    # tight fails at the sample farthest out
    meas = make_merton(1.0, (0.1, -0.2), 0.5, dim=2)
    ax = np.linspace(-4.0, 4.0, 41)
    pts = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    assert check_admissibility(meas, pts).holds
    tight = LevyMeasure(meas.density, 2, ShapeParams(
        c0=meas.shape.c0, alpha=0.0, d=0.0, mu=2.0 * meas.shape.mu))
    rep = check_admissibility(tight, pts)
    assert not rep.holds
    assert np.hypot(*rep.worst_z) == pytest.approx(4.0 * math.sqrt(2.0))


def test_admissibility_reports_a_negative_density():
    # a density below 0 is no measure: the report fails at its most negative
    # sample with a worst ratio of -inf, whatever the envelope says
    base = make_merton(1.0, 0.0, 1.0)
    signed = LevyMeasure(lambda z: base.density(z) * np.sign(z - 0.5), 1,
                         base.shape)
    rep = check_admissibility(signed, np.array([-1.0, 0.25, 1.0, 2.0]))
    assert not rep.holds
    assert rep.worst_ratio == -np.inf
    assert rep.worst_z == (0.25,)


def test_levy_exponent_merton_closed_form():
    # m=0 symmetric: truncated compensator integral vanishes and
    # phi(1) = lam (1 - E e^{iZ}) = 1 - e^{-1/2}
    got = levy_exponent(make_merton(1.0, 0.0, 1.0), 1.0)
    assert abs(got.real - (1.0 - math.exp(-0.5))) < 1e-9
    assert abs(got.imag) < 1e-9


def test_moments_are_one_dimensional():
    with pytest.raises(ParameterDomainError):
        moments(make_merton(1.0, (0.0, 0.0), 0.2, dim=2))


def test_levy_pair_requires_one_dimensional_factors():
    nux = make_merton(0.3, 0.0, 0.2)
    nuy = make_merton(0.4, 0.1, 0.3)
    pair = levy_pair(nux, nuy)
    assert pair.axis_x is nux and pair.axis_y is nuy
    with pytest.raises(ParameterDomainError):
        levy_pair(make_merton(0.3, (0.0, 0.0), 0.2, dim=2), nuy)
    # a pair is a 2-D measure: a 1-D plan refuses it by name
    with pytest.raises(ParameterDomainError, match="measure dim 2"):
        build_plan(make_grid(3.0, 64, reach=pair.jump_radius), pair)


def test_admissibility_needs_a_sample():
    with pytest.raises(ParameterDomainError, match="must not be empty"):
        check_admissibility(make_merton(1.0, 0.0, 1.0), [])


def test_merton_density_peak_location():
    meas = make_merton(1.0, -0.1, 0.2)
    z = np.linspace(-0.5, 0.3, 1601)
    vals = np.asarray(meas.density(z))
    assert abs(z[int(np.argmax(vals))] + 0.1) < 1e-3


# (factory, {rel_tol: the tail radius, as its float bits}); the searched
# radii size the padding and the quadrature nodes of every plan, so a
# faster envelope must keep them to the last bit
PINNED_RADII = {
    "merton": (lambda: make_merton(0.5, -0.1, 0.2),
               {1e-10: "0x1.11a8000000000p+1", 1e-13: "0x1.3081a00000000p+1"}),
    "kou": (lambda: make_kou(0.4, 0.6, 8.0, 4.0),
            {1e-10: "0x1.b069f00000000p+2", 1e-13: "0x1.0f78100000000p+3"}),
    "exptail_alpha_0.5": (lambda: make_exponential_tail(1.0, 0.5, 3.0),
                          {1e-10: "0x1.0b6bb00000000p+3",
                           1e-13: "0x1.53dde00000000p+3"}),
    "exptail_alpha_1.5": (lambda: make_exponential_tail(1.0, 1.5, 3.0),
                          {1e-10: "0x1.efcf300000000p+2",
                           1e-13: "0x1.3dc0100000000p+3"}),
    "merton_2d": (lambda: make_merton(0.5, [-0.1, 0.05], 0.2, dim=2),
                  {1e-10: "0x1.1507600000000p+1",
                   1e-13: "0x1.33fb800000000p+1"}),
}


@pytest.mark.parametrize("name", sorted(PINNED_RADII))
def test_tail_radius_keeps_its_bits(name):
    factory, radii = PINNED_RADII[name]
    measure = factory()
    assert measure.jump_radius == float.fromhex(radii[1e-10])
    for rel_tol, bits in radii.items():
        assert measure.shape.tail_radius(measure.dim, rel_tol) \
            == float.fromhex(bits)
