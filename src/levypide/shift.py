"""Price-impact shift resolution for a large trader with strategy psi.

In transformed variables a jump of raw size z lands at x + xi, where xi
solves the balance

    e^xi = e^z + rho * (psi(tau, x + xi) - psi(tau, x)).

resolve_xi and xi_on_grid share one solve: a fixed point on w = xi - z
whose stalled entries go to a bracket scan, each bracket then polished by
scipy's elementwise find_root.  The explicit linearization

    xi = z + rho e^(-z) (psi(tau, x + z) - psi(tau, x))

(resolve_xi_first_order) is kept as a diagnostic: its gap to the solve
shrinks like rho^2.  The drift correction

    delta(tau, x) = int (e^xi - 1 - xi) h(z) dz

feeds the transport term of the pricing equation.  In original variables
the impacted jump amplitude H solves
H = rho S (phi(t, S + H) - phi(t, S)) + S (e^z - 1), which is the same
balance at x = ln(S / K): resolve_H returns H = S (e^xi - 1) from the one
solve.  Every evaluation of psi goes through TradingStrategy.values, which
rejects a value that is not finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# brentq is not called here, but bench/tracing.py rebinds it by this
# module's name, so the name must stay importable
from scipy.optimize import brentq  # noqa: F401

from .bessel import ProbeReport
from .errors import (NoSolutionError, ParameterDomainError,
                     ToleranceNotMetError)
from .measures import (LevyMeasure, compensated_exp_term, exp_moment_cutoff,
                       moments)
from .quadrature import adaptive_quad, quad_left_unit

__all__ = [
    "TradingStrategy", "ShiftModel", "strategy_zero", "strategy_linear",
    "strategy_sin", "strategy_tanh_ramp", "strategy_from_table",
    "estimate_holder_constant", "resolve_xi", "resolve_xi_first_order",
    "xi_on_grid", "count_xi_roots", "resolve_H", "compute_delta",
    "growth_bound_probe",
]

# Iteration cap of the shift fixed point; its stall detector hands what is
# left to the bracketed root solve.
_FP_MAX_ITER = 64
# Convergence tolerance of the shift fixed point (scaled residual)
_FP_TOL = 1e-12


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
    # set False only when psi ignores tau; lets callers reuse resolved shifts
    # across time steps
    time_dependent: bool = True

    def __post_init__(self):
        if not 0.0 < self.holder_exponent <= 1.0:
            raise ParameterDomainError("holder_exponent must lie in (0, 1]")
        if self.holder_constant is not None \
                and not 0 <= self.holder_constant < math.inf:
            raise ParameterDomainError(
                "holder_constant must be nonnegative and finite")

    def values(self, tau: float, x) -> np.ndarray:
        """psi(tau, x) as a float array; a value that is not finite raises
        ParameterDomainError naming the first such (tau, x)."""
        vals = np.asarray(self.psi(tau, x), dtype=float)
        finite = np.isfinite(vals)
        if not np.all(finite):
            at = np.broadcast_arrays(x, vals)[0].ravel()[np.argmin(finite)]
            raise ParameterDomainError(
                f"strategy psi is not finite at tau={tau:.6g}, x={at:.6g}")
        return vals


def strategy_zero() -> TradingStrategy:
    return TradingStrategy(lambda tau, x: np.zeros_like(np.asarray(x, dtype=float)),
                           1.0, 0.0, time_dependent=False)


def _check_finite(**numbers) -> None:
    """Raise a ParameterDomainError naming the first number not finite."""
    for name, value in numbers.items():
        if not math.isfinite(value):
            raise ParameterDomainError(f"{name} must be finite")


def strategy_linear(slope: float) -> TradingStrategy:
    _check_finite(slope=slope)
    return TradingStrategy(lambda tau, x: slope * np.asarray(x, dtype=float),
                           1.0, abs(slope), time_dependent=False)


def strategy_sin(amplitude: float, frequency: float = 1.0) -> TradingStrategy:
    _check_finite(amplitude=amplitude, frequency=frequency)
    return TradingStrategy(
        lambda tau, x: amplitude * np.sin(frequency * np.asarray(x, dtype=float)),
        1.0, abs(amplitude * frequency), time_dependent=False)


def strategy_tanh_ramp(amplitude: float, center: float = 0.0,
                       width: float = 1.0) -> TradingStrategy:
    _check_finite(amplitude=amplitude, center=center)
    if not 0 < width < math.inf:
        raise ParameterDomainError("width must be positive and finite")
    return TradingStrategy(
        lambda tau, x: amplitude * np.tanh((np.asarray(x, dtype=float) - center) / width),
        1.0, abs(amplitude / width), time_dependent=False)


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
        1.0, float(np.max(slopes)), time_dependent=False)


def estimate_holder_constant(strategy: TradingStrategy, x_cloud) -> float:
    """Empirical Holder constant max |dpsi| / |dx|^omega over cloud pairs at
    tau = 0."""
    x = np.asarray(x_cloud, dtype=float)
    p = strategy.values(0.0, x)
    dx = np.abs(x[:, None] - x[None, :])
    dp = np.abs(p[:, None] - p[None, :])
    mask = dx > 1e-12
    return float(np.max(dp[mask] / dx[mask] ** strategy.holder_exponent))


@dataclass(frozen=True)
class ShiftModel:
    """Strategy + impact strength rho."""

    strategy: TradingStrategy
    rho: float

    def __post_init__(self):
        if not 0 <= self.rho < math.inf:
            raise ParameterDomainError("rho must be nonnegative and finite")


def resolve_xi_first_order(model: ShiftModel, tau: float, x, z):
    """Explicit linearized shift xi = z + rho e^(-z) (psi(tau, x+z) - psi(tau, x))."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(x.shape, z.shape)
    if model.rho == 0.0:
        return np.broadcast_to(z, shape).copy()
    return z + _balance(model, tau, x, z)(0.0).reshape(shape)


def _balance(model: ShiftModel, tau: float, x: np.ndarray, z: np.ndarray):
    """The impact term of the shift balance on x and z, as a function

        t(w, idx) = rho e^(-z) (psi(tau, x + z + w) - psi(tau, x))

    at the entries idx of the flattened broadcast of x and z (all of them by
    default), broadcast against w.  psi(tau, x) is evaluated on x itself.
    xi = z + w solves the balance exactly when expm1(w) = t(w).  psi goes
    through TradingStrategy.values, so a value that is not finite raises."""
    values = model.strategy.values
    shape = np.broadcast_shapes(x.shape, z.shape)
    psi_x = np.broadcast_to(values(tau, x), shape).ravel()
    scale = np.broadcast_to(model.rho * np.exp(np.minimum(-z, 700.0)),
                            shape).ravel()
    xz = (x + z).ravel()

    def t(w, idx=slice(None)):
        return scale[idx] * (values(tau, xz[idx] + w) - psi_x[idx])

    return t


def _fixed_point_core(model: ShiftModel, tau: float, x: np.ndarray,
                      z: np.ndarray, stats: dict | None = None) -> np.ndarray:
    """Vectorized fixed-point solve of e^xi = e^z + rho * dpsi(xi).

    Works on w = xi - z, which satisfies w = log1p(t(w)) and stays well
    scaled for any z (the raw residual e^xi - e^z is not representable once
    e^z exceeds 1/eps); psi runs once per iterate, on the entries still
    iterating.  Each entry of the broadcast x, z stops on its own: it has
    converged once its scaled residual is below _FP_TOL, and it goes to the
    bracketed root solve (_bracketed_roots_w) once its residual has failed
    to fall 5 times in a row, once its log1p argument 1 + t drops to 0 or
    below, or when _FP_MAX_ITER iterates leave it unconverged.  An entry's
    shift therefore does not depend on the entries that share the call.
    stats, when given, counts the entry-iterates under shift_fp_iterations
    and the fallback entries under shift_fallback_points.
    """
    shape = np.broadcast_shapes(x.shape, z.shape)
    size = math.prod(shape)
    t = _balance(model, tau, x, z)

    def scaled_residual(w, tw):
        return np.abs(np.expm1(w) - tw) / (1.0 + np.abs(tw))

    w = np.zeros(size)
    fallback = np.zeros(size, dtype=bool)
    # the entries still iterating: their indices, t(w), scaled residuals
    # and stall counts, compacted as entries leave
    live = np.arange(size)
    tw_l = t(w)
    res_l = scaled_residual(w, tw_l)
    stall_l = np.zeros(size, dtype=np.int32)
    entry_iterates = 0
    for _ in range(_FP_MAX_ITER):
        open_ = 1.0 + tw_l > 0.0
        if not np.all(open_):
            fallback[live[~open_]] = True
            live, tw_l, res_l, stall_l = (
                a[open_] for a in (live, tw_l, res_l, stall_l))
            if not live.size:
                break
        w_l = np.log1p(tw_l)
        tw_l = t(w_l, live)
        res_next = scaled_residual(w_l, tw_l)
        stall_l = np.where(res_next >= res_l, stall_l + 1, 0)
        res_l = res_next
        entry_iterates += live.size
        converged = res_l < _FP_TOL
        left = converged | (stall_l >= 5)
        if np.any(left):
            w[live[converged]] = w_l[converged]
            fallback[live[left & ~converged]] = True
            stay = ~left
            live, tw_l, res_l, stall_l = (
                a[stay] for a in (live, tw_l, res_l, stall_l))
            if not live.size:
                break
    fallback[live] = True

    todo = np.flatnonzero(fallback)
    if stats is not None:
        stats["shift_fp_iterations"] = (
            stats.get("shift_fp_iterations", 0) + entry_iterates)
        stats["shift_fallback_points"] = (
            stats.get("shift_fallback_points", 0) + int(todo.size))
    if todo.size:
        at = np.unravel_index(todo, shape)
        w[todo] = _bracketed_roots_w(model, tau, np.broadcast_to(x, shape)[at],
                                     np.broadcast_to(z, shape)[at])
        # fallback entries are root-polished to ~1e-15 in w itself; the
        # residual slope can be of order e^|z| there, so the sanity bound
        # loosens to sqrt(_FP_TOL) rather than _FP_TOL
        worst = float(np.max(scaled_residual(w[todo], t(w[todo], todo))))
        if worst >= math.sqrt(_FP_TOL):
            raise ToleranceNotMetError(
                f"shift fixed point stalled at scaled residual {worst:.3e}",
                estimate=float(np.max(np.abs(z + w.reshape(shape)))),
                error=worst)
    return z + w.reshape(shape)


def _bracketed_roots_w(model: ShiftModel, tau: float, x: np.ndarray,
                       z: np.ndarray) -> np.ndarray:
    """Root nearest w = 0 of the w-residual g(w) = expm1(w) - t(w) (t from
    _balance; g is +inf where w > 700) for each entry of the 1-D x, z.

    Scans 17 points on [-width, width] for width = 0.25, 0.5, ... up to 800;
    an entry takes the first width whose scan changes sign and, within it,
    the bracket whose midpoint is nearest 0 (the lower one on a tie), which
    keeps the solve deterministic when the residual oscillates and admits
    several roots.  scipy's elementwise find_root (Chandrupatla's method)
    then polishes each bracket on its own, with brentq's tolerances
    xtol = 1e-15 and rtol = 8.9e-16, so an entry's root does not depend on
    the entries that share the call.
    """
    # imported here: the fallback is rare, and loading the module costs
    # memory in every process that imports the package
    from scipy.optimize.elementwise import find_root

    t = _balance(model, tau, x, z)

    def g(w, idx=slice(None)):
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.expm1(w) - t(w, idx)
        return np.where(w > 700.0, np.inf, r)

    m = x.size
    lo, hi = np.empty(m), np.empty(m)
    todo = np.arange(m)
    width = 0.25
    while todo.size and width <= 800.0:
        pts = np.linspace(-width, width, 17)
        sgn = np.sign(g(pts, todo[:, None]))
        hit = sgn[:, :-1] * sgn[:, 1:] <= 0
        mid_dist = np.abs(pts[:-1] + 0.5 * (pts[1] - pts[0]))
        j = np.argmin(np.where(hit, mid_dist, np.inf), axis=1)
        found = np.nonzero(np.any(hit, axis=1))[0]
        lo[todo[found]], hi[todo[found]] = pts[j[found]], pts[j[found] + 1]
        todo = np.delete(todo, found)
        width *= 2.0
    if todo.size:
        i = todo[:1]
        raise NoSolutionError(
            "shift balance has no root: the displaced level stays nonpositive "
            f"for z={float(z[i[0]]):.4g} (rho or the strategy swing is too large)",
            residual=abs(float(g(np.zeros(1), i)[0])))
    return find_root(g, (lo, hi), args=(np.arange(m),),
                     tolerances=dict(xatol=1e-15, xrtol=8.9e-16, fatol=0.0,
                                     frtol=0.0)).x


def _resolve(model: ShiftModel | None, tau: float, x, z,
             stats: dict | None = None):
    """The shift on the broadcast of x and z, a float when both are scalars;
    no model or rho = 0 returns z exactly (no arithmetic applied)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(x.shape, z.shape)
    if model is None or model.rho == 0.0:
        out = np.broadcast_to(z, shape).copy()
    else:
        out = _fixed_point_core(model, tau, np.atleast_1d(x),
                                np.atleast_1d(z), stats).reshape(shape)
    return float(out) if out.ndim == 0 else out


def resolve_xi(model: ShiftModel, tau: float, x, z):
    """Shift resolved by fixed-point iteration started at xi = z; scalar or
    array x and z broadcast together, and rho = 0 returns z exactly."""
    return _resolve(model, tau, x, z)


def xi_on_grid(model: ShiftModel | None, tau: float, x: np.ndarray, z,
               stats: dict | None = None) -> np.ndarray:
    """Shift values for raw jump sizes z across a grid of x (fast path).

    A scalar z gives one value per x; a 1-D array of node sizes gives one
    row per node, a (len(z), x.size) array.  Every entry is resolved on its
    own, so a row equals the call for its node alone, bit for bit.  When
    stats is given, stats["shift_fp_iterations"] grows by the fixed point's
    entry-iterates and stats["shift_fallback_points"] by the number of
    entries it handed to the bracketed root solve.
    """
    z = np.asarray(z, dtype=float)
    return _resolve(model, tau, x, z[:, None] if z.ndim else z, stats)


def count_xi_roots(model: ShiftModel, tau: float, x: float, z: float) -> int:
    """Sign changes of the shift residual for xi in [z - 2, z + 2]; > 1 flags
    non-uniqueness of the impacted jump size."""
    s = np.linspace(-2.0, 2.0, 2048)
    t = _balance(model, tau, np.array([float(x)]), np.array([float(z)]))
    signs = np.sign(np.expm1(s) - t(s))
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def resolve_H(model: ShiftModel, tau: float, spot: float, z: float,
              strike: float = 1.0) -> float:
    """Impacted jump amplitude in original variables,

        H = rho S (phi(t, S+H) - phi(t, S)) + S (e^z - 1),

    where phi(t, S) = psi(tau, log(S / strike)).  This is the shift balance
    at x = log(S / strike) with S + H = S e^xi, so H = S (e^xi - 1) from
    resolve_xi; rho = 0 gives the impact-free S (e^z - 1), since resolve_xi
    returns z exactly there.
    """
    if spot <= 0 or strike <= 0:
        raise ParameterDomainError("spot and strike must be positive")
    return spot * math.expm1(resolve_xi(model, tau, math.log(spot / strike), z))


def compute_delta(model: ShiftModel | None, measure: LevyMeasure, tau: float,
                  x: float) -> float:
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
        return float(moments(measure).compensated_exp_moment)

    cache: dict[float, float] = {}

    def xi_of(z: float) -> float:
        got = cache.get(z)
        if got is None:
            got = float(resolve_xi(model, tau, x, z))
            cache[z] = got
        return got

    def integrand(z: float) -> float:
        hz = float(measure.density(z))
        # no shift is resolved where h vanishes
        return 0.0 if hz == 0.0 else compensated_exp_term(xi_of(float(z)), hz)

    # past the jump radius's rule at 1e-13 the shift balance may have no root
    zc_pos = exp_moment_cutoff(measure.shape)
    zc_neg = max(measure.tail_radius(1e-13), 1.0)
    return (quad_left_unit(integrand)
            + quad_left_unit(lambda z: integrand(-z))
            + adaptive_quad(integrand, 1.0, zc_pos)
            + adaptive_quad(lambda z: integrand(-z), 1.0, zc_neg))


def growth_bound_probe(model: ShiftModel, z_samples, x_samples) -> ProbeReport:
    """Ratios |xi| / (|z|^omega (1 + e^|z|)) over a (x, z) sample cloud at
    tau = 0.

    For a Holder strategy the ratio stays bounded; the probe passes when the
    max is within 10 times the median across two decades of |z|.
    """
    omega = model.strategy.holder_exponent
    zs = np.asarray(z_samples, dtype=float)
    xs = np.asarray(x_samples, dtype=float)
    if np.any(zs == 0):
        raise ParameterDomainError("z samples must be nonzero")
    xi = xi_on_grid(model, 0.0, xs, zs)
    bound = [abs(z) ** omega * (1.0 + math.exp(abs(z))) for z in zs.tolist()]
    ratios = np.max(np.abs(xi), axis=1) / np.array(bound)
    return ProbeReport.from_ratios(zs, ratios)
