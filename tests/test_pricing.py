import math

import numpy as np
import pytest

from levypide import pricing, shift
from levypide.blackscholes import BlackScholesClosedForm
from levypide.errors import (NoSolutionError, OutOfDomainError,
                             ParameterDomainError, ToleranceNotMetError)
from levypide.grids import make_grid
from levypide.measures import make_merton
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


def test_series_oracle_degenerates_to_black_scholes():
    assert merton_series_oracle(MKT, (0.0, 0.3, 0.4)) == bs_closed_form(MKT)
    # zero-size jumps at zero mean change nothing either
    got = merton_series_oracle(MKT, (0.7, 0.0, 0.0))
    assert abs(got - bs_closed_form(MKT)) < 1e-10


def test_series_oracle_budget_and_validation():
    with pytest.raises(ToleranceNotMetError):
        merton_series_oracle(MarketSpec(100.0, 100.0, 30.0, 0.05, 0.2, "call"),
                             (5.0, 0.1, 0.3), terms=40)
    with pytest.raises(ParameterDomainError):
        merton_series_oracle(MKT, (-1.0, 0.1, 0.3))
    with pytest.raises(ParameterDomainError):
        merton_series_oracle(MKT, (0.5, 0.1, 0.3), terms=10)


def test_series_oracle_refuses_an_overflowing_jump_moment():
    # e^(m + s^2/2) - 1 overflows for jump_std = 1e150; the oracle used to
    # end in an OverflowError from math.expm1
    with pytest.raises(ParameterDomainError, match="overflows"):
        merton_series_oracle(MKT, (0.5, -0.1, 1e150))


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
