"""Black-Scholes closed forms in the log-moneyness variables.

Values are expressed in the transformed frame (time-to-maturity tau,
x = ln(S/K)) where the undiscounted value solves a constant-coefficient
parabolic equation; the original price is e^{-r tau} times the transformed
value.  The normal CDF comes from scipy.special.ndtr (erfc-based, accurate to
machine precision, far inside the 1e-12 requirement).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ParameterDomainError

__all__ = ["BlackScholesClosedForm"]

# Half-width of the live interval in units of sigma sqrt(tau): ndtr rounds
# to exactly 1.0 from a = 8.3 (scipy 1.17.1), so 9 keeps a margin.
_SATURATED = 9.0


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau < math.inf:
        raise ParameterDomainError("tau must be nonnegative and finite")


@dataclass(frozen=True)
class BlackScholesClosedForm:
    """Call/put value u(tau, x), slope du/dx, payoff, and spot-price views.

    For calls, u(tau, x) = K e^{x + r tau} N(d1) - K N(d2) with
    d1,2 = (x + (r +/- sigma^2/2) tau) / (sigma sqrt(tau)); the x-derivative
    collapses to K e^{x + r tau} N(d1) because the N' terms cancel.  tau = 0
    returns the payoff (the tau -> 0 limit).
    """

    strike: float
    rate: float
    sigma: float
    option_type: str = "call"

    def __post_init__(self):
        if not 0 < self.strike < math.inf:
            raise ParameterDomainError("strike must be positive and finite")
        if not math.isfinite(self.rate):
            raise ParameterDomainError("rate must be finite")
        if not 0 < self.sigma < math.inf:
            raise ParameterDomainError("sigma must be positive and finite")
        if self.option_type not in ("call", "put"):
            raise ParameterDomainError("option_type must be call or put")

    def _d12(self, tau: float, x):
        sq = self.sigma * math.sqrt(tau)
        d1 = (x + (self.rate + 0.5 * self.sigma ** 2) * tau) / sq
        d2 = d1 - sq
        return d1, d2

    def live_interval(self, tau: float):
        """(lo, hi, below, above): the interval outside which the kernel is
        saturated at tau, and the side profiles (c0, c1) with
        u(tau, x) = c0 + c1 e^x below lo and above hi.

        Below lo, d1, d2 < -9: ndtr(-d) has rounded to exactly 1 (it does
        from 8.3) and ndtr(d) <= ndtr(-9), so u is c0 + c1 e^x there up to
        the rounding of e^{x + r tau} against e^{r tau} e^x:
        (K, -K e^{r tau}) for a put, (0, 0) for a call, within ndtr(-9) K.
        Above hi (d1, d2 > 9) the roles swap: (0, 0) for a put,
        (-K, K e^{r tau}) for a call.  The compensated jump operator
        annihilates c0 + c1 e^x, so a pair (x, x + xi) with both ends on one
        saturated side adds 0 up to rounding or ndtr(-9) ~ 1.1e-19 K.
        tau = 0 gives (0, 0), the kink, with the payoff's two sides.
        """
        _check_tau(tau)
        sq = _SATURATED * self.sigma * math.sqrt(tau)
        half_var = 0.5 * self.sigma ** 2 * tau
        K, grown = self.strike, self.strike * math.exp(self.rate * tau)
        zero = (0.0, 0.0)
        below, above = ((K, -grown), zero) if self.option_type == "put" \
            else (zero, (-K, grown))
        return (-sq - self.rate * tau - half_var,
                sq - self.rate * tau + half_var, below, above)

    def payoff(self, x):
        x = np.asarray(x, dtype=float)
        ex = np.exp(x)
        if self.option_type == "call":
            return self.strike * np.maximum(ex - 1.0, 0.0)
        return self.strike * np.maximum(1.0 - ex, 0.0)

    def u(self, tau: float, x):
        """Transformed (undiscounted) value at log-moneyness x."""
        _check_tau(tau)
        x = np.asarray(x, dtype=float)
        if tau == 0.0:
            return self.payoff(x)
        K = self.strike
        d1, d2 = self._d12(tau, x)
        fwd = K * np.exp(x + self.rate * tau)
        if self.option_type == "call":
            return fwd * ndtr(d1) - K * ndtr(d2)
        return K * ndtr(-d2) - fwd * ndtr(-d1)

    def du_dx(self, tau: float, x):
        """x-derivative of the transformed value (jumps at x=0 when tau=0)."""
        _check_tau(tau)
        x = np.asarray(x, dtype=float)
        if tau == 0.0:
            ex = self.strike * np.exp(x)
            if self.option_type == "call":
                return np.where(x > 0.0, ex, 0.0)
            return np.where(x < 0.0, -ex, 0.0)
        d1, _ = self._d12(tau, x)
        fwd = self.strike * np.exp(x + self.rate * tau)
        if self.option_type == "call":
            return fwd * ndtr(d1)
        return -fwd * ndtr(-d1)

    def price(self, spot, tau: float):
        """Option price at spot price(s) and time-to-maturity tau."""
        spot = np.asarray(spot, dtype=float)
        if np.any(spot <= 0):
            raise ParameterDomainError("spot must be positive")
        x = np.log(spot / self.strike)
        out = math.exp(-self.rate * tau) * self.u(tau, x)
        return float(out) if np.ndim(spot) == 0 else out
