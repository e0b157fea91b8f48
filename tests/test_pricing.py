import math

import numpy as np
import pytest

from levypide import pricing, shift
from levypide.blackscholes import BlackScholesClosedForm
from levypide.errors import (NoSolutionError, OutOfDomainError,
                             ParameterDomainError,
                             UnsupportedConfigurationError)
from levypide.grids import make_grid
from levypide.measures import LevyMeasure, make_kou, make_merton
from levypide.pricing import (MarketSpec, bs_closed_form, estimate_reach,
                              merton_series_oracle, price_european,
                              report_price, transform_to_pide)
from levypide.shift import (ShiftModel, TradingStrategy, strategy_linear,
                            strategy_sin, strategy_tanh_ramp)
from levypide.solver import CauchyProblem, SchemeConfig, solve_shifted

MKT = MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2, "call")


def test_black_scholes_reference_value():
    # classic S=K=100, r=5%, sigma=20%, T=1 call
    assert abs(bs_closed_form(MKT) - 10.450583572185565) < 1e-12
    put = MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2, "put")
    # put-call parity: C - P = S - K e^(-rT)
    want = 100.0 - 100.0 * math.exp(-0.05)
    assert abs(bs_closed_form(MKT) - bs_closed_form(put) - want) < 1e-12


def test_black_scholes_asymptotes_and_slope():
    bs = BlackScholesClosedForm(100.0, 0.05, 0.2, "call")
    # deep in the money: u -> K(e^{x+r tau} - 1); far out: u -> 0
    assert abs(float(bs.u(1.0, 3.0)) - 100.0 * (math.exp(3.05) - 1.0)) < 1e-6
    assert float(bs.u(1.0, -3.0)) < 1e-3
    # slope against a centered difference
    x = np.linspace(-1.5, 1.5, 31)
    h = 1e-6
    fd = (bs.u(0.7, x + h) - bs.u(0.7, x - h)) / (2.0 * h)
    assert np.max(np.abs(bs.du_dx(0.7, x) - fd)) < 1e-4
    with pytest.raises(ParameterDomainError):
        BlackScholesClosedForm(100.0, 0.05, -0.2)
    with pytest.raises(ParameterDomainError):
        bs.price(-5.0, 1.0)


def test_market_spec_validation():
    with pytest.raises(ParameterDomainError):
        MarketSpec(0.0, 100.0, 1.0, 0.05, 0.2, "call")
    with pytest.raises(ParameterDomainError):
        MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2, "straddle")
    assert abs(MarketSpec(110.0, 100.0, 1.0, 0.0, 0.2, "call").log_moneyness
               - math.log(1.1)) < 1e-15


NAN, INF = math.nan, math.inf
CORE = make_grid(2.0, 16)


@pytest.mark.parametrize("build,name", [
    # sigma = inf used to march to a BlowUpError
    (lambda: CauchyProblem(CORE, sigma=INF, horizon=1.0), "sigma"),
    (lambda: CauchyProblem(CORE, sigma=0.2, horizon=INF), "horizon"),
    (lambda: CauchyProblem(CORE, sigma=0.2, horizon=1.0, strike=INF),
     "strike"),
    (lambda: BlackScholesClosedForm(NAN, 0.05, 0.2), "strike"),
    (lambda: BlackScholesClosedForm(INF, 0.05, 0.2), "strike"),
    (lambda: BlackScholesClosedForm(100.0, NAN, 0.2), "rate"),
    (lambda: BlackScholesClosedForm(100.0, 0.05, NAN), "sigma"),
    (lambda: BlackScholesClosedForm(100.0, 0.05, INF), "sigma"),
    (lambda: TradingStrategy(lambda tau, x: x, 1.0, NAN), "holder_constant"),
    (lambda: strategy_linear(NAN), "slope"),
    (lambda: strategy_sin(INF), "amplitude"),
    (lambda: strategy_sin(0.3, NAN), "frequency"),
    (lambda: strategy_tanh_ramp(0.3, -INF), "center"),
    # NaN passed the old `width <= 0`
    (lambda: strategy_tanh_ramp(0.3, 0.0, NAN), "width"),
    (lambda: strategy_tanh_ramp(0.3, 0.0, INF), "width"),
    # a NaN parameter used to exhaust the series budget instead
    (lambda: merton_series_oracle(MKT, (NAN, -0.1, 0.2)), "intensity"),
    (lambda: merton_series_oracle(MKT, (0.5, NAN, 0.2)), "intensity"),
    (lambda: merton_series_oracle(MKT, (0.5, -0.1, INF)), "intensity"),
])
def test_public_constructors_refuse_nan_and_inf(build, name):
    # each check is written as `not 0 < x < inf` or isfinite, which NaN fails
    with pytest.raises(ParameterDomainError, match=f"^{name}"):
        build()


def test_series_oracle_frozen_value():
    # jump-count expansion, checked independently against the solver during
    # development; frozen here
    got = merton_series_oracle(MKT, (0.5, -0.1, 0.2))
    assert abs(got - 12.164203195593313) < 1e-12


def test_series_oracle_keeps_parity_under_a_far_jump_mean():
    # at jump_mean = -30 a term's own discount e^(-r_k T) overflows from
    # k = 24 on; the oracle used to raise an OverflowError there
    put = MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2, "put")
    call = merton_series_oracle(MKT, (0.5, -30.0, 1.0))
    diff = call - merton_series_oracle(put, (0.5, -30.0, 1.0))
    assert abs(diff - (100.0 - 100.0 * math.exp(-0.05))) < 1e-12
    assert call == pytest.approx(42.3186, abs=1e-4)


def test_a_two_dimensional_pricing_problem_is_refused():
    # no solver accepts a 2-D pricing form (it has no nonlinearity); it used
    # to be built, with no initial field
    with pytest.raises(UnsupportedConfigurationError, match="1-D"):
        transform_to_pide(MKT, make_grid(5.0, 64, dim=2))


@pytest.mark.parametrize("edit,what", [
    (lambda z, h: np.where(z > 1.5, np.nan, h), "NaN"),
    (lambda z, h: np.where(np.abs(z) < 0.3, -1.0, h), "negative"),
    (lambda z, h: np.where(z > 1.5, np.inf, h), "infinite"),
], ids=["nan_beyond_1.5", "negative_below_0.3", "inf_beyond_1.5"])
def test_a_bad_user_density_is_named_where_it_is_sampled(edit, what):
    # these used to fail as a non-finite source at tau = 0, as an envelope
    # tail that does not decay and as a StabilityError with bound 0.000e+00
    # (an infinite plan mass)
    base = make_merton(0.5, -0.1, 0.2)
    bad = LevyMeasure(lambda z: edit(np.asarray(z), base.density(z)), 1,
                      base.shape)
    with pytest.raises(ParameterDomainError, match=f"density is {what} at z"):
        price_european(MKT, bad, n_core=128, scheme=SchemeConfig(dt=0.05))


def test_a_density_nan_only_far_past_the_jump_radius_prices():
    # a Kou density written as up * (z > 0) + down * (z < 0) is inf * 0 =
    # NaN for z < -709 / 25; the tail-radius search samples out to
    # |z| = e^8, but no plan node or lattice point lands there
    kou = make_kou(0.4, 0.6, 25.0, 4.0)

    def naive(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return 0.4 * (0.6 * 25.0 * np.exp(-25.0 * z) * (z > 0)
                          + 0.4 * 4.0 * np.exp(4.0 * z) * (z < 0))

    assert np.isnan(naive(-100.0))
    scheme = SchemeConfig(dt=0.05)
    got = price_european(MKT, LevyMeasure(naive, 1, kou.shape), n_core=128,
                         scheme=scheme)
    # against the same node-sum path: the tagged kou takes the closed form
    untagged = LevyMeasure(kou.density, 1, kou.shape)
    assert got.price == price_european(MKT, untagged, n_core=128,
                                       scheme=scheme).price


def test_series_oracle_degenerates_to_black_scholes():
    assert merton_series_oracle(MKT, (0.0, 0.3, 0.4)) == bs_closed_form(MKT)
    # zero-size jumps at zero mean change nothing either
    got = merton_series_oracle(MKT, (0.7, 0.0, 0.0))
    assert abs(got - bs_closed_form(MKT)) < 1e-10


def test_series_oracle_budget_and_validation():
    with pytest.raises(ParameterDomainError):
        merton_series_oracle(MKT, (-1.0, 0.1, 0.3))
    # lam* T = 8.8e12 would need as many terms, each one 0.0 in floats
    with pytest.raises(ParameterDomainError, match="jump-count terms"):
        merton_series_oracle(MKT, (0.5, 30.0, 1.0))


@pytest.mark.parametrize("merton", [(1e-17, 40.0, 0.1), (1e5, 0.1, 0.3)])
def test_series_oracle_prices_where_e_to_the_r_k_t_overflows(merton):
    # e^(r_k T) alone passes the float range from k = 18 (jump mean 40) and
    # from k = 112477 (lam T = 1e5); each term takes it inside one exponent
    # with the Poisson factor's log, so the series keeps parity and bounds
    put = MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2, "put")
    call = merton_series_oracle(MKT, merton)
    diff = call - merton_series_oracle(put, merton)
    assert abs(diff - (100.0 - 100.0 * math.exp(-0.05))) < 1e-8
    assert 0.0 <= call <= 100.0


@pytest.mark.parametrize("intensity", [60.0, 1000.0])
def test_series_oracle_keeps_parity_when_lambda_t_is_large(intensity):
    # the Poisson tail bound holds only past the mode; before it, once the
    # weight underflowed, the oracle returned its partial sum (0.0 for
    # lam = 1000) or ran out of its 120 terms (lam = 60)
    put = MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2, "put")
    call = merton_series_oracle(MKT, (intensity, 0.1, 0.3))
    diff = call - merton_series_oracle(put, (intensity, 0.1, 0.3))
    assert abs(diff - (100.0 - 100.0 * math.exp(-0.05))) < 1e-8
    assert 0.0 <= call <= 100.0 + 1e-8


def test_series_oracle_refuses_an_overflowing_jump_moment():
    # e^(m + s^2/2) - 1 overflows for jump_std = 1e150; the oracle used to
    # end in an OverflowError from math.expm1
    with pytest.raises(ParameterDomainError, match="overflows"):
        merton_series_oracle(MKT, (0.5, -0.1, 1e150))


@pytest.mark.parametrize("jump_mean,rel_tol", [(-2.0, 1e-3), (-1.0, 5e-6)])
def test_a_far_jump_mean_keeps_its_jumps_in_the_radius(jump_mean, rel_tol):
    # the Merton envelope is centred at 0 and inflated by e^(m^2 / 2 s^2);
    # measured against its own tail the radius was 1.38 at m = -2, the plan
    # nodes carried 1.5e-10 of the intensity and the price was the
    # Black-Scholes one (10.4506 against 35.769)
    nu = make_merton(0.5, jump_mean, 0.1)
    assert nu.jump_radius > -jump_mean
    got = price_european(MKT, nu, n_core=512).price
    want = merton_series_oracle(MKT, (0.5, jump_mean, 0.1))
    assert abs(got / want - 1.0) <= rel_tol


def test_transform_round_trip_prices_without_jumps():
    # the full pipeline on a jump-free market reproduces the closed form
    res = price_european(MKT, None, None, n_core=512,
                         scheme=SchemeConfig(dt=0.02))
    assert abs(res.price - bs_closed_form(MKT)) < 1e-12


def test_price_european_without_a_scheme_marches_imex_bdf2_at_t_over_500():
    # the README's one-call example passes no scheme: the default is the
    # one a config without scheme.dt gets, imex_bdf2 at dt = T / 500
    nu = make_merton(0.5, -0.1, 0.2)
    market = MarketSpec(100.0, 100.0, 0.25, 0.05, 0.2, "call")
    default = price_european(market, nu, n_core=128)
    explicit = price_european(market, nu, n_core=128, scheme=SchemeConfig(
        scheme="imex_bdf2", dt=0.25 / 500))
    assert pricing.DEFAULT_STEPS == 500
    assert default.price == explicit.price


def test_priced_merton_matches_oracle():
    nu = make_merton(0.5, -0.1, 0.2)
    res = price_european(MKT, nu, None, n_core=1024,
                         scheme=SchemeConfig(dt=0.02))
    oracle = merton_series_oracle(MKT, (0.5, -0.1, 0.2))
    assert abs(res.price - oracle) / oracle < 1e-4


def test_put_pricing_and_parity_under_jumps():
    nu = make_merton(0.3, 0.05, 0.15)
    put_mkt = MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2, "put")
    sch = SchemeConfig(dt=0.02)
    call = price_european(MKT, nu, None, n_core=1024, scheme=sch).price
    put = price_european(put_mkt, nu, None, n_core=1024, scheme=sch).price
    want = 100.0 - 100.0 * math.exp(-0.05)
    # parity is a model-free identity, so the discretization must honor it
    assert abs(call - put - want) < 5e-4


def test_report_price_interpolates_off_node():
    mkt = MarketSpec(103.7, 100.0, 1.0, 0.05, 0.2, "call")
    g = make_grid(6.0, 1024)
    problem = transform_to_pide(mkt, g)
    res = solve_shifted(problem, SchemeConfig(dt=0.02))
    got = report_price(mkt, res)
    # cubic interpolation off-node on dx ~ 1e-2 carries an O(dx^4) error
    assert abs(got - bs_closed_form(mkt)) < 1e-5


@pytest.mark.parametrize("strike", [0.1, 0.2])
def test_price_outside_the_core_window_is_out_of_domain(strike, monkeypatch):
    # ln(S0/K) = 6.91 and 6.21 lie past half_width = 6: cubic interpolation
    # read the padding or wrapped around the box there (K = 0.1 gave
    # -7.9e-180 against the closed form's 99.905); nothing is solved first
    solves = []
    real = pricing.solve_shifted
    monkeypatch.setattr(pricing, "solve_shifted",
                        lambda *a: solves.append(a) or real(*a))
    mkt = MarketSpec(100.0, strike, 1.0, 0.05, 0.2, "call")
    with pytest.raises(OutOfDomainError,
                       match=r"ln\(S0/K\) = 6\.\d+.*half-width 6\b"):
        price_european(mkt, None, n_core=256, scheme=SchemeConfig(dt=0.05))
    assert solves == []


def test_transform_to_pide_carries_market_data():
    g = make_grid(6.0, 512)
    problem = transform_to_pide(MKT, g)
    assert problem.strike == 100.0
    assert problem.rate == 0.05
    assert problem.horizon == 1.0
    assert problem.option_type == "call"


def test_estimate_reach_modes():
    nu = make_merton(0.5, -0.1, 0.2)
    assert estimate_reach(None, None, 6.0) == 0.0
    base = estimate_reach(nu, None, 6.0)
    assert 2.0 < base < 4.0
    active = estimate_reach(nu, ShiftModel(strategy_tanh_ramp(0.3), rho=0.02),
                            6.0)
    assert active > base
    with pytest.raises(NoSolutionError):
        estimate_reach(nu, ShiftModel(strategy_tanh_ramp(2.0), rho=0.5), 6.0)


def test_estimate_reach_rejects_a_non_finite_strategy():
    # a NaN swing used to slip past the feasibility test and size the pad
    # as if there were no shift
    def psi(tau, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 1.0, np.nan, 0.3 * np.tanh(x))

    model = ShiftModel(TradingStrategy(psi, 1.0, 0.3, time_dependent=False),
                       rho=0.05)
    with pytest.raises(ParameterDomainError, match=r"tau=0, x=1\.03125\b"):
        estimate_reach(make_merton(0.5, -0.1, 0.2), model, 6.0)


def test_shifted_price_exceeds_unshifted_for_ramp():
    nu = make_merton(0.3, -0.05, 0.15)
    sch = SchemeConfig(dt=0.02)
    plain = price_european(MKT, nu, None, n_core=512, scheme=sch).price
    shifted = price_european(MKT, nu,
                             ShiftModel(strategy_tanh_ramp(0.3), rho=0.03),
                             n_core=512, scheme=sch).price
    assert shifted != plain
    assert abs(shifted - plain) < 0.5


def test_shifted_price_calls_no_scalar_root_finder(monkeypatch):
    # the resolver's fallback is one vectorized bracketed solve; a scalar
    # brentq per point must not come back
    def scalar_root(*args, **kwargs):
        raise AssertionError("scalar brentq called by the shift resolver")

    monkeypatch.setattr(shift, "brentq", scalar_root)
    nu = make_merton(0.5, -0.1, 0.2)
    # a steep strategy (rho e^(-z) |psi'| > 1 for the larger negative jumps)
    # stalls the fixed point there, so the bracketed solve does run
    res = price_european(MKT, nu, ShiftModel(strategy_sin(0.05, 10.0), rho=1.0),
                         n_core=256, scheme=SchemeConfig(dt=0.05))
    assert math.isfinite(res.price)
    assert res.result.stats["shift_fallback_points"] > 0


def test_non_finite_strategy_fails_the_price_with_a_domain_error():
    # a psi that is NaN for x > 1 stops the solve with a named error rather
    # than reaching the band build as NaN shifts
    def psi(tau, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 1.0, np.nan, 0.3 * np.tanh(x))

    model = ShiftModel(TradingStrategy(psi, 1.0, 0.3, time_dependent=False),
                       rho=0.05)
    with pytest.raises(ParameterDomainError, match="psi is not finite"):
        price_european(MKT, make_merton(0.5, -0.1, 0.2), model, n_core=128,
                       scheme=SchemeConfig(dt=0.05))
