"""Black-Scholes closed forms in the log-moneyness variables.

Values are expressed in the transformed frame (time-to-maturity tau,
x = ln(S/K)) where the undiscounted value solves a constant-coefficient
parabolic equation; the original price is e^{-r tau} times the transformed
value.  The normal CDF comes from scipy.special.ndtr (erfc-based, accurate to
machine precision, far inside the 1e-12 requirement).

For lognormal (Merton) and double-exponential (Kou) jumps the compensated
jump operator applied to the closed form has a closed form too
(BlackScholesClosedForm.jump_source).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfcx, ndtr

from .errors import ParameterDomainError

__all__ = ["BlackScholesClosedForm"]

# Half-width of the live interval in units of sigma sqrt(tau): ndtr rounds
# to exactly 1.0 from a = 8.3 (scipy 1.17.1), so 9 keeps a margin.
_SATURATED = 9.0


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau < math.inf:
        raise ParameterDomainError("tau must be nonnegative and finite")


def _kou_s(a: np.ndarray, eta: float, v: float) -> np.ndarray:
    """S(eta, a) = e^{eta a + eta^2 v^2 / 2} N(-t), t = a/v + eta v, of
    BlackScholesClosedForm.jump_source, one branch per point: where t > 0
    the product is e^{-a^2 / 2 v^2} erfcx(t / sqrt 2) / 2, whose factors
    neither overflow nor underflow early, and elsewhere the direct one,
    whose exponent is then at most -eta^2 v^2 / 2."""
    t = a / v + eta * v
    out = np.empty_like(a)
    tail = t > 0.0
    out[tail] = 0.5 * np.exp(-0.5 * (a[tail] / v) ** 2) \
        * erfcx(t[tail] / math.sqrt(2.0))
    near = ~tail
    out[near] = np.exp(eta * a[near] + 0.5 * (eta * v) ** 2) * ndtr(-t[near])
    return out


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

    def jump_source(self, tau: float, x, family: tuple) -> np.ndarray:
        """The compensated jump operator on the closed form,

            h(tau, x) = int [u(tau, x + z) - u - (e^z - 1) u'] nu(dz),

        in closed form for a ("merton", ...) or ("kou", ...) family (see
        LevyMeasure.family).  The operator annihilates c0 + c1 e^x, so a
        call and a put share h; both forms below are the put's.

        Merton, Z ~ N(m, s^2) with intensity lam: E u(tau, x + Z) is the put
        at total variance V^2 = sigma^2 tau + s^2 and log-drift
        mu = (r - sigma^2/2) tau + m, K N(-d) - K e^{x + mu + V^2/2} N(-d - V)
        with d = (x + mu) / V, and h = lam [E - u - kappa u'] with
        kappa = e^{m + s^2/2} - 1.  tau = 0 reads u and u' from the payoff,
        with u' at the kink as du_dx gives it.

        Kou (lam, p, eta_up, eta_down): with v = sigma sqrt(tau),
        a = x + (r - sigma^2/2) tau and
        S(eta, a) = e^{eta a + eta^2 v^2 / 2} N(-a/v - eta v),
            h = lam K [p S(eta_up, a) / (eta_up - 1)
                       + (1 - p) S(eta_down, -a) / (eta_down + 1)].
        This is Kou's I-function form after its N(-d1,2) and u' terms
        cancel; S goes through erfcx where it would underflow (_kou_s).
        tau = 0 takes the v -> 0 limit S = e^{eta a} for a < 0, the up term
        on x < 0 and the down term on x >= 0 (du_dx's side at the kink).
        """
        _check_tau(tau)
        x = np.asarray(x, dtype=float)
        name, lam, *law = family
        if name == "merton":
            m, s = law
            K, sig2 = self.strike, self.sigma ** 2
            put = self if self.option_type == "put" \
                else replace(self, option_type="put")
            var = sig2 * tau + s * s
            V = math.sqrt(var)
            mu = (self.rate - 0.5 * sig2) * tau + m
            d = (x + mu) / V
            jumped = K * ndtr(-d) \
                - K * np.exp(x + mu + 0.5 * var) * ndtr(-d - V)
            return lam * (jumped - put.u(tau, x) - math.expm1(m + 0.5 * s * s)
                          * put.du_dx(tau, x))
        if name != "kou":
            raise ParameterDomainError(
                f"no closed-form jump source for {name}")
        p, eta_up, eta_down = law
        if tau == 0.0:
            up = np.where(x < 0.0, np.exp(eta_up * np.minimum(x, 0.0)), 0.0)
            down = np.where(x >= 0.0,
                            np.exp(-eta_down * np.maximum(x, 0.0)), 0.0)
        else:
            v = self.sigma * math.sqrt(tau)
            a = x + (self.rate - 0.5 * self.sigma ** 2) * tau
            up, down = _kou_s(a, eta_up, v), _kou_s(-a, eta_down, v)
        return lam * self.strike * (p / (eta_up - 1.0) * up
                                    + (1.0 - p) / (eta_down + 1.0) * down)

    def price(self, spot, tau: float):
        """Option price at spot price(s) and time-to-maturity tau."""
        spot = np.asarray(spot, dtype=float)
        if np.any(spot <= 0):
            raise ParameterDomainError("spot must be positive")
        x = np.log(spot / self.strike)
        out = math.exp(-self.rate * tau) * self.u(tau, x)
        return float(out) if np.ndim(spot) == 0 else out
