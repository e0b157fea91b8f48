"""Market-coordinate layer: contract specs, transforms, and price assembly.

Prices live in spot/calendar coordinates (S, t); the solver works in
log-moneyness and time-to-maturity, x = ln(S/K), tau = T - t, with the
discounting peeled off: V(t, S) = e^(-r tau) u(tau, x).  This module owns
that round trip, the jump-compensated closed-form series for lognormal jump
sizes (the solver's independent ground truth), and a one-call European
pricer.

The series and the solver share one drift convention: the first-order
coefficient compensates the jump expectation with integral (e^z - 1) nu(dz),
so both price the same martingale dynamics.  Grid padding starts from the
measure's jump_radius, the one tail-radius search of a measure object that
build_plan reads as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blackscholes import BlackScholesClosedForm
from .errors import (NoSolutionError, OutOfDomainError,
                     ParameterDomainError, ToleranceNotMetError)
from .grids import Grid, GridField, field_interp, make_grid
from .measures import LevyMeasure
from .shift import ShiftModel
from .solver import CauchyProblem, SchemeConfig, SolveResult, solve_shifted

__all__ = [
    "MarketSpec", "PriceResult", "transform_to_pide", "report_price",
    "bs_closed_form", "merton_series_oracle", "price_european",
    "estimate_reach",
]

# Steps of the default scheme over the maturity: dt = T / DEFAULT_STEPS, for
# price_european without a scheme and for a config that sets no scheme.dt.
DEFAULT_STEPS = 500


@dataclass(frozen=True)
class MarketSpec:
    """European option contract and flat market parameters."""

    S0: float
    K: float
    T: float
    r: float
    sigma: float
    option_type: str = "call"

    def __post_init__(self):
        if not 0.0 < self.S0 < math.inf:
            raise ParameterDomainError("spot S0 must be positive and finite")
        if not 0.0 < self.K < math.inf:
            raise ParameterDomainError("strike K must be positive and finite")
        if not 0.0 < self.T < math.inf:
            raise ParameterDomainError("maturity T must be positive and finite")
        if not math.isfinite(self.r):
            raise ParameterDomainError("rate r must be finite")
        if not (self.sigma > 0.0 and 0.0 < self.sigma * self.sigma < math.inf):
            raise ParameterDomainError(
                "volatility sigma must be positive, with a finite nonzero "
                "square")
        if self.option_type not in ("call", "put"):
            raise ParameterDomainError("option_type must be call or put")

    @property
    def log_moneyness(self) -> float:
        return math.log(self.S0 / self.K)

    def check_core_window(self, half_width: float) -> float:
        """ln(S0/K), which must lie in the core window [-half_width,
        half_width]: past it a price would be read from the padding or wrap
        around the periodic box.  Checked before a grid is built."""
        x = self.log_moneyness
        if abs(x) > half_width:
            raise OutOfDomainError(
                f"ln(S0/K) = {x:.6g} lies outside the core window of "
                f"half-width {half_width:.6g}")
        return x


@dataclass(frozen=True)
class PriceResult:
    """Price in spot coordinates plus the solve it came from."""

    price: float
    result: SolveResult


def transform_to_pide(market: MarketSpec, grid: Grid,
                      measure: LevyMeasure | None = None,
                      shift: ShiftModel | None = None) -> CauchyProblem:
    """Market data to forward Cauchy problem on the supplied grid.

    The initial field is the payoff in log-moneyness units (K(e^x - 1)^+ or
    K(1 - e^x)^+); shifted solves ignore it and regenerate the closed form
    internally, direct experiments can march it as-is.
    """
    bs = BlackScholesClosedForm(market.K, market.r, market.sigma,
                                market.option_type)
    payoff = GridField(grid, bs.payoff(grid.axis()), 0.0) if grid.dim == 1 \
        else None
    return CauchyProblem(grid=grid, sigma=market.sigma, horizon=market.T,
                         rate=market.r, measure=measure, shift=shift,
                         initial=payoff, strike=market.K,
                         option_type=market.option_type)


def report_price(market: MarketSpec, result: SolveResult) -> float:
    """V(0, S0) = e^(-rT) u(T, ln(S0/K)), cubic-interpolated off-node;
    ln(S0/K) must lie in the solve's core window (check_core_window)."""
    x = market.check_core_window(result.field.grid.half_width)
    u = field_interp(result.field, np.array([x]))
    return float(math.exp(-market.r * market.T) * u[0])


def bs_closed_form(market: MarketSpec) -> float:
    """Jump-free closed-form price of the contract."""
    bs = BlackScholesClosedForm(market.K, market.r, market.sigma,
                                market.option_type)
    return float(bs.price(market.S0, market.T))


def merton_series_oracle(market: MarketSpec, merton, terms: int = 120) -> float:
    """Closed-form price under lognormal jumps by conditioning on jump count.

    merton is (intensity, jump_mean, jump_std).  Each count k contributes a
    Poisson-weighted price with variance and rate adjusted by the realized
    jumps; the drift uses the compensator kappa = e^(m + s^2/2) - 1 matching
    the solver's convention.  The series is summed until the remaining
    Poisson tail is below 1e-12 relative; exhausting `terms` first raises
    a tolerance error.
    """
    lam, m, s = (float(v) for v in merton)
    if not (0 <= lam < math.inf and 0 <= s < math.inf and math.isfinite(m)):
        raise ParameterDomainError("intensity, jump_mean and jump_std must be "
                                   "finite, intensity and jump_std >= 0")
    if terms < 30:
        raise ParameterDomainError("terms must be at least 30")
    gexp = m + 0.5 * s * s
    try:
        kappa = math.expm1(gexp)
    except OverflowError:
        raise ParameterDomainError(
            "e^(jump_mean + jump_std^2/2) overflows") from None
    lam_star = lam * (1.0 + kappa)
    T = market.T
    if lam_star * T == 0.0:
        return bs_closed_form(market)
    total = 0.0
    log_weight = -lam_star * T  # log of e^(-lam* T) (lam* T)^k / k!
    for k in range(terms):
        if k > 0:
            log_weight += math.log(lam_star * T) - math.log(k)
        weight = math.exp(log_weight)
        sigma_k = math.sqrt(market.sigma ** 2 + k * s * s / T)
        r_k = market.r - lam * kappa + k * gexp / T
        bs_k = BlackScholesClosedForm(market.K, r_k, sigma_k,
                                      market.option_type)
        total += weight * float(bs_k.price(market.S0, T))
        if k >= 30:
            # Poisson tail beyond k is below (lam* T)^(k+1)/(k+1)! e^(...)
            tail = weight * lam_star * T / (k + 1.0)
            if tail * max(market.S0, market.K) < 1e-12 * max(total, 1e-300):
                return total
    raise ToleranceNotMetError(
        f"jump-count series not converged within {terms} terms",
        estimate=total, error=float("nan"))


def estimate_reach(measure: LevyMeasure | None, shift: ShiftModel | None,
                   half_width: float) -> float:
    """Padding needed so shifted jumps stay inside the extended box.

    Identity shifts need the measure's jump_radius; active shifts widen it by
    how far the displaced level can be pushed toward zero by the strategy
    swing.  Infeasible (rho, strategy) pairs are rejected here with the same
    no-solution diagnosis the resolver would give, and a strategy that is
    not finite on the core window with a ParameterDomainError naming the
    first such sample.
    """
    if measure is None:
        return 0.0
    base = measure.jump_radius
    if shift is None or shift.rho == 0.0:
        return 1.1 * base + 0.1
    xs = np.linspace(-half_width, half_width, 257)
    psi_vals = shift.strategy.values(0.0, xs)
    swing = float(np.max(psi_vals) - np.min(psi_vals))
    margin = math.exp(-base) - shift.rho * swing
    if margin <= 0.0:
        raise NoSolutionError(
            "shift strategy swing can push the displaced level nonpositive "
            f"within the jump range (rho*swing = {shift.rho * swing:.3g} >= "
            f"e^(-tail radius) = {math.exp(-base):.3g})",
            residual=-margin)
    return 1.15 * max(base, -math.log(margin)) + 0.1


def price_european(market: MarketSpec, measure: LevyMeasure | None = None,
                   shift: ShiftModel | None = None, *,
                   half_width: float = 6.0, n_core: int = 1024,
                   scheme: SchemeConfig | None = None) -> PriceResult:
    """One-call European price: grid sizing, shifted solve, reassembly."""
    market.check_core_window(half_width)
    reach = estimate_reach(measure, shift, half_width)
    grid = make_grid(half_width, n_core, reach=reach)
    problem = transform_to_pide(market, grid, measure, shift)
    if scheme is None:
        scheme = SchemeConfig(scheme="imex_bdf2", dt=market.T / DEFAULT_STEPS)
    result = solve_shifted(problem, scheme)
    return PriceResult(report_price(market, result), result)
