"""Price-impact shift resolution for a large trader with strategy psi.

In transformed variables a jump of raw size z lands at x + xi, where xi
solves the balance

    e^xi = e^z + rho * (psi(tau, x + xi) - psi(tau, x)).

`first_order` mode replaces the solve by the explicit linearization
xi = z + rho e^(-z) (psi(tau, x + z) - psi(tau, x)); the gap between the two
shrinks like rho^2.  The drift correction

    delta(tau, x) = int (e^xi - 1 - xi) h(z) dz

feeds the transport term of the pricing equation, and in original variables
the impacted jump amplitude H solves
H = rho S (phi(t, S + H) - phi(t, S)) + S (e^z - 1), tied to xi by
H = S (e^xi - 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# brentq is not called here (_bisect_vec replaces it), but bench/tracing.py
# rebinds it by this module's name, so the name must stay importable
from scipy.optimize import brentq  # noqa: F401

from .errors import (NoSolutionError, ParameterDomainError,
                     ToleranceNotMetError)
from .measures import LevyMeasure, exp_moment_cutoff
from .quadrature import adaptive_quad, quad_left_unit

__all__ = [
    "TradingStrategy", "ShiftModel", "strategy_zero", "strategy_linear",
    "strategy_sin", "strategy_tanh_ramp", "strategy_from_table",
    "estimate_holder_constant", "resolve_xi", "resolve_xi_fixed_point",
    "resolve_xi_first_order", "xi_on_grid", "count_xi_roots", "resolve_H",
    "compute_delta", "growth_bound_probe", "GrowthReport",
]

_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class TradingStrategy:
    """Trader position as a function of (tau, x), with a Holder certificate.

    psi must be vectorized in x.  holder_exponent/holder_constant certify
    |psi(tau, x) - psi(tau, y)| <= L |x - y|^omega on the region of interest;
    estimate_holder_constant fits L empirically on a point cloud.
    """

    psi: Callable[[float, np.ndarray], np.ndarray]
    holder_exponent: float = 1.0
    holder_constant: float | None = None
    name: str = "custom"
    # set False only when psi ignores tau; lets callers reuse resolved shifts
    # across time steps
    time_dependent: bool = True

    def __post_init__(self):
        if not 0.0 < self.holder_exponent <= 1.0:
            raise ParameterDomainError("holder_exponent must lie in (0, 1]")
        if self.holder_constant is not None and self.holder_constant < 0:
            raise ParameterDomainError("holder_constant must be nonnegative")


def strategy_zero() -> TradingStrategy:
    return TradingStrategy(lambda tau, x: np.zeros_like(np.asarray(x, dtype=float)),
                           1.0, 0.0, "zero", time_dependent=False)


def strategy_linear(slope: float) -> TradingStrategy:
    return TradingStrategy(lambda tau, x: slope * np.asarray(x, dtype=float),
                           1.0, abs(slope), "linear", time_dependent=False)


def strategy_sin(amplitude: float, frequency: float = 1.0) -> TradingStrategy:
    return TradingStrategy(
        lambda tau, x: amplitude * np.sin(frequency * np.asarray(x, dtype=float)),
        1.0, abs(amplitude * frequency), "sin", time_dependent=False)


def strategy_tanh_ramp(amplitude: float, center: float = 0.0,
                       width: float = 1.0) -> TradingStrategy:
    if width <= 0:
        raise ParameterDomainError("width must be positive")
    return TradingStrategy(
        lambda tau, x: amplitude * np.tanh((np.asarray(x, dtype=float) - center) / width),
        1.0, abs(amplitude / width), "tanh_ramp", time_dependent=False)


def strategy_from_table(x_table, psi_table) -> TradingStrategy:
    """Piecewise-linear strategy interpolated from a table (constant in tau,
    clamped outside the table range)."""
    xt = np.asarray(x_table, dtype=float)
    pt = np.asarray(psi_table, dtype=float)
    if xt.ndim != 1 or xt.shape != pt.shape or xt.size < 2:
        raise ParameterDomainError("tables must be 1-D, equal length >= 2")
    if np.any(np.diff(xt) <= 0):
        raise ParameterDomainError("x_table must be strictly increasing")
    slopes = np.abs(np.diff(pt) / np.diff(xt))
    return TradingStrategy(
        lambda tau, x: np.interp(np.asarray(x, dtype=float), xt, pt),
        1.0, float(np.max(slopes)), "table", time_dependent=False)


def estimate_holder_constant(strategy: TradingStrategy, x_cloud,
                             tau_samples=(0.0,)) -> float:
    """Empirical Holder constant max |dpsi| / |dx|^omega over cloud pairs."""
    x = np.asarray(x_cloud, dtype=float)
    w = strategy.holder_exponent
    best = 0.0
    for tau in tau_samples:
        p = np.asarray(strategy.psi(float(tau), x), dtype=float)
        dx = np.abs(x[:, None] - x[None, :])
        dp = np.abs(p[:, None] - p[None, :])
        mask = dx > 1e-12
        best = max(best, float(np.max(dp[mask] / dx[mask] ** w)))
    return best


@dataclass(frozen=True)
class ShiftModel:
    """Strategy + impact strength rho and the xi resolution mode."""

    strategy: TradingStrategy
    rho: float
    mode: str = "fixed_point"
    fp_tol: float = 1e-12
    fp_max_iter: int = 64

    def __post_init__(self):
        if self.rho < 0:
            raise ParameterDomainError("rho must be nonnegative")
        if self.mode not in ("fixed_point", "first_order"):
            raise ParameterDomainError("mode must be fixed_point or first_order")
        if self.fp_tol <= 0 or self.fp_max_iter < 1:
            raise ParameterDomainError("fp_tol must be > 0 and fp_max_iter >= 1")


def resolve_xi_first_order(model: ShiftModel, tau: float, x, z):
    """Explicit linearized shift xi = z + rho e^(-z) (psi(tau, x+z) - psi(tau, x))."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if model.rho == 0.0:
        return np.broadcast_to(z, np.broadcast_shapes(x.shape, z.shape)).copy()
    psi = model.strategy.psi
    return z + model.rho * np.exp(-z) * (psi(tau, x + z) - psi(tau, x))


def _fixed_point_core(model: ShiftModel, tau: float, x: np.ndarray,
                      z: np.ndarray, stats: dict | None = None) -> np.ndarray:
    """Vectorized fixed-point solve of e^xi = e^z + rho * dpsi(xi).

    Works on w = xi - z, which satisfies w = log1p(rho e^(-z) dpsi) and stays
    well scaled for any z (the raw residual e^xi - e^z is not representable
    once e^z exceeds 1/eps).  Entries that stall, or whose log1p argument
    transiently drops below -1, go together to one vectorized bracketed root
    solve (_bracketed_roots_w); stats, when given, counts them under
    shift_fallback_points.
    """
    psi = model.strategy.psi
    rho = model.rho
    shape = np.broadcast_shapes(x.shape, z.shape)
    xb = np.ascontiguousarray(np.broadcast_to(x, shape), dtype=float)
    zb = np.ascontiguousarray(np.broadcast_to(z, shape), dtype=float)
    psi_x = np.broadcast_to(np.asarray(psi(tau, xb), dtype=float), shape)
    em = np.exp(np.minimum(-zb, 700.0))

    def scaled_residual(w):
        t = rho * em * (np.asarray(psi(tau, xb + zb + w), dtype=float) - psi_x)
        return np.abs(np.expm1(w) - t) / (1.0 + np.abs(t))

    w = np.zeros(shape)
    fallback = np.zeros(shape, dtype=bool)
    prev_res = scaled_residual(w)
    stall = np.zeros(shape, dtype=np.int32)
    for _ in range(model.fp_max_iter):
        t = rho * em * (np.asarray(psi(tau, xb + zb + w), dtype=float) - psi_x)
        fallback |= (1.0 + t <= 0.0)
        t = np.where(fallback, 0.0, t)
        w = np.where(fallback, w, np.log1p(t))
        res = np.where(fallback, np.inf, scaled_residual(w))
        if not np.any(fallback) and np.max(res) < model.fp_tol:
            return zb + w
        # a converged entry (res < fp_tol, often exactly 0) never stalls
        stall = np.where((res >= prev_res) & (res >= model.fp_tol), stall + 1, 0)
        prev_res = res
        if np.max(np.where(fallback, 0, stall)) >= 5:
            break
        if np.all(fallback | (res < model.fp_tol)):
            break

    # bracketed fallback on whatever did not converge
    res = scaled_residual(w)
    todo = np.nonzero((res.ravel() >= model.fp_tol) | fallback.ravel())[0]
    w = w.ravel()
    w[todo] = _bracketed_roots_w(model, tau, xb.ravel()[todo], zb.ravel()[todo])
    w = w.reshape(shape)
    if stats is not None:
        stats["shift_fallback_points"] = (
            stats.get("shift_fallback_points", 0) + int(todo.size))
    # fallback entries are root-polished to ~1e-15 in w itself; the residual
    # slope can be of order e^|z| there, so the sanity bound loosens to
    # sqrt(fp_tol) rather than fp_tol
    worst = float(np.max(scaled_residual(w)))
    if worst >= math.sqrt(model.fp_tol):
        raise ToleranceNotMetError(
            f"shift fixed point stalled at scaled residual {worst:.3e}",
            estimate=float(np.max(np.abs(zb + w))), error=worst)
    return zb + w


def _w_residual_fn(model: ShiftModel, tau: float, x: np.ndarray, z: np.ndarray):
    """The w-residual as a function
    g(w, idx) = expm1(w) - rho e^(-z) (psi(tau, x + z + w) - psi(tau, x))
    at the entries idx of x and z (all of them by default), broadcast
    against w; zero exactly when xi = z + w solves the shift balance, and
    +inf where w > 700."""
    psi = model.strategy.psi
    psi_x = np.asarray(psi(tau, x), dtype=float)
    scale = model.rho * np.exp(np.minimum(-z, 700.0))

    def g(w, idx=slice(None)):
        with np.errstate(over="ignore", invalid="ignore"):
            dpsi = np.asarray(psi(tau, x[idx] + z[idx] + w), dtype=float) - psi_x[idx]
            r = np.expm1(w) - scale[idx] * dpsi
        return np.where(w > 700.0, np.inf, r)

    return g


def _bracketed_roots_w(model: ShiftModel, tau: float, x: np.ndarray,
                       z: np.ndarray) -> np.ndarray:
    """Root of the w-residual nearest w = 0 for each entry of the 1-D x, z.

    Scans 17 points on [-width, width] for width = 0.25, 0.5, ... up to 800;
    an entry takes the first width whose scan changes sign and, within it,
    the bracket whose midpoint is nearest 0 (the lower one on a tie), which
    keeps the solve deterministic when the residual oscillates and admits
    several roots.  The brackets are then polished together by _bisect_vec.
    """
    g = _w_residual_fn(model, tau, x, z)
    m = x.size
    lo, hi, g_lo, g_hi = (np.empty(m) for _ in range(4))
    todo = np.arange(m)
    width = 0.25
    while todo.size and width <= 800.0:
        pts = np.linspace(-width, width, 17)
        vals = g(pts, todo[:, None])
        sgn = np.sign(vals)
        hit = sgn[:, :-1] * sgn[:, 1:] <= 0
        mid_dist = np.abs(pts[:-1] + 0.5 * (pts[1] - pts[0]))
        j = np.argmin(np.where(hit, mid_dist, np.inf), axis=1)
        found = np.nonzero(np.any(hit, axis=1))[0]
        j = j[found]
        dest = todo[found]
        lo[dest], hi[dest] = pts[j], pts[j + 1]
        g_lo[dest], g_hi[dest] = vals[found, j], vals[found, j + 1]
        todo = np.delete(todo, found)
        width *= 2.0
    if todo.size:
        i = todo[:1]
        raise NoSolutionError(
            "shift balance has no root: the displaced level stays nonpositive "
            f"for z={float(z[i[0]]):.4g} (rho or the strategy swing is too large)",
            residual=abs(float(g(np.zeros(1), i)[0])))
    return _bisect_vec(g, lo, hi, g_lo, g_hi)


def _bisect_vec(g, lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray,
                g_hi: np.ndarray) -> np.ndarray:
    """Bisection on many brackets at once.

    g(w) evaluates the residual of every bracket; g_lo and g_hi are its
    values at the ends lo and hi, of opposite signs or zero.  Each bracket
    halves until it is shorter than xtol + rtol |w| with brentq's
    tolerances xtol = 1e-15, rtol = 8.9e-16; its midpoint is the root.
    """
    xtol, rtol = 1e-15, 8.9e-16
    hi = np.where(g_lo == 0.0, lo, hi)
    lo = np.where(g_hi == 0.0, hi, lo)
    for _ in range(200):
        mid = lo + 0.5 * (hi - lo)
        if np.all(hi - lo < xtol + rtol * np.abs(mid)):
            break
        g_mid = g(mid)
        exact = g_mid == 0.0
        up = ~exact & (np.signbit(g_mid) == np.signbit(g_lo))
        lo, g_lo = np.where(up | exact, mid, lo), np.where(up, g_mid, g_lo)
        hi = np.where(up, hi, mid)
    return lo + 0.5 * (hi - lo)


def resolve_xi_fixed_point(model: ShiftModel, tau: float, x, z):
    """Shift resolved by fixed-point iteration started at xi = z.

    rho = 0 returns z exactly (no arithmetic applied).  Scalar or array
    x and z broadcast together.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if model.rho == 0.0:
        out = np.broadcast_to(z, np.broadcast_shapes(x.shape, z.shape)).copy()
        return float(out) if out.ndim == 0 else out
    out = _fixed_point_core(model, tau, np.atleast_1d(x), np.atleast_1d(z))
    if x.ndim == 0 and z.ndim == 0:
        return float(out[0])
    return out.reshape(np.broadcast_shapes(x.shape, z.shape))


def resolve_xi(model: ShiftModel, tau: float, x, z):
    if model.mode == "first_order":
        out = resolve_xi_first_order(model, tau, x, z)
        if np.ndim(out) == 0 or (np.ndim(x) == 0 and np.ndim(z) == 0):
            return float(np.asarray(out).reshape(-1)[0]) if np.ndim(x) == 0 and np.ndim(z) == 0 else out
        return out
    return resolve_xi_fixed_point(model, tau, x, z)


def xi_on_grid(model: ShiftModel | None, tau: float, x: np.ndarray, z: float,
               stats: dict | None = None) -> np.ndarray:
    """Shift values for one raw jump size z across a grid of x (fast path).

    When stats is given, stats["shift_fallback_points"] grows by the number
    of points the fixed point handed to the bracketed root solve.
    """
    if model is None or model.rho == 0.0:
        return np.full_like(np.asarray(x, dtype=float), float(z))
    if model.mode == "first_order":
        return np.asarray(resolve_xi_first_order(model, tau, x, float(z)), dtype=float)
    return np.asarray(_fixed_point_core(model, tau, np.asarray(x, dtype=float),
                                        np.asarray(float(z)), stats), dtype=float)


def count_xi_roots(model: ShiftModel, tau: float, x: float, z: float,
                   half_width: float = 2.0, samples: int = 2048) -> int:
    """Sign changes of the shift residual for xi in [z - w, z + w]; > 1 flags
    non-uniqueness of the impacted jump size."""
    s = np.linspace(-half_width, half_width, samples)
    g = _w_residual_fn(model, tau, np.array([float(x)]), np.array([float(z)]))
    signs = np.sign(g(s))
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def resolve_H(model: ShiftModel, tau: float, spot: float, z: float,
              strike: float = 1.0) -> float:
    """Impacted jump amplitude in original variables,

        H = rho S (phi(t, S+H) - phi(t, S)) + S (e^z - 1),

    where phi(t, S) = psi(tau, log(S / strike)).  Fixed point started at the
    impact-free amplitude S (e^z - 1); rho = 0 returns it exactly.
    """
    if spot <= 0 or strike <= 0:
        raise ParameterDomainError("spot and strike must be positive")
    base = spot * (math.exp(z) - 1.0)
    if model.rho == 0.0:
        return base
    psi = model.strategy.psi

    def phi(s: float) -> float:
        return float(np.asarray(psi(tau, np.array([math.log(s / strike)])))[0])

    phi_s = phi(spot)
    h = base
    prev = abs(h)
    for _ in range(model.fp_max_iter):
        nxt = model.rho * spot * (phi(spot + h) - phi_s) + base
        if spot + nxt <= _LOG_FLOOR:
            raise NoSolutionError("impacted price S + H collapsed to zero")
        if abs(nxt - h) < model.fp_tol * max(1.0, abs(nxt)):
            return nxt
        h, prev = nxt, abs(nxt - h)
    raise ToleranceNotMetError("amplitude fixed point did not converge",
                               estimate=h, error=prev)


def compute_delta(model: ShiftModel | None, measure: LevyMeasure, tau: float,
                  x: float, tol: float = 1e-10) -> float:
    """Drift correction delta(tau, x) = int (e^xi - 1 - xi) h(z) dz.

    Requires a measure with finite e^z moments.  The resolved shift is cached
    per raw jump size so the adaptive quadrature never re-solves a node.
    """
    if not measure.has_exp_moment:
        raise ParameterDomainError(
            "delta requires finite e^z moments: mu > 0 or envelope decay d > 1")
    if measure.dim != 1:
        raise ParameterDomainError("delta is one-dimensional")
    if model is None or model.rho == 0.0:
        from .measures import moments
        return float(moments(measure, tol).compensated_exp_moment)

    cache: dict[float, float] = {}

    def xi_of(z: float) -> float:
        got = cache.get(z)
        if got is None:
            got = float(resolve_xi(model, tau, x, z))
            cache[z] = got
        return got

    def integrand(z: float) -> float:
        hz = float(measure(z))
        if hz == 0.0:
            return 0.0
        xi = xi_of(float(z))
        if xi <= 700.0:
            return (math.exp(xi) - 1.0 - xi) * hz
        # e^xi alone overflows although e^xi * h(z) is tame
        return math.exp(xi + math.log(hz)) - (1.0 + xi) * hz

    zc_pos = exp_moment_cutoff(measure.shape)
    zc_neg = max(measure.shape.tail_radius(1, rel_tol=1e-13), 4.0) + 10.0
    return (quad_left_unit(integrand, tol)
            + quad_left_unit(lambda z: integrand(-z), tol)
            + adaptive_quad(integrand, 1.0, zc_pos, tol)
            + adaptive_quad(lambda z: integrand(-z), 1.0, zc_neg, tol))


@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    max_ratio: float
    median_ratio: float
    spread: float
    detail: tuple


def growth_bound_probe(model: ShiftModel, z_samples, x_samples,
                       tau: float = 0.0, spread_limit: float = 10.0) -> GrowthReport:
    """Ratios |xi| / (|z|^omega (1 + e^|z|)) over a (x, z) sample cloud.

    For a Holder strategy the ratio stays bounded; the probe passes when the
    max is within spread_limit of the median across two decades of |z|.
    """
    omega = model.strategy.holder_exponent
    zs = np.asarray(z_samples, dtype=float)
    xs = np.asarray(x_samples, dtype=float)
    if np.any(zs == 0):
        raise ParameterDomainError("z samples must be nonzero")
    ratios = []
    for z in zs:
        xi = xi_on_grid(model, tau, xs, float(z))
        bound = abs(z) ** omega * (1.0 + math.exp(abs(z)))
        ratios.append(np.max(np.abs(xi)) / bound)
    ratios = np.asarray(ratios)
    med = float(np.median(ratios))
    mx = float(np.max(ratios))
    spread = mx / med if med > 0 else (np.inf if mx > 0 else 1.0)
    return GrowthReport(spread <= spread_limit, mx, med, spread,
                        tuple(zip(zs.tolist(), ratios.tolist())))
