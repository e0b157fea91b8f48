"""Time integration of the transformed jump-diffusion Cauchy problems.

Every solve is one abstract semilinear problem v' = L v + N(tau, v): a linear
part L taken implicitly and an explicit remainder N carrying the jump
operator, the drift excess, the source and any user nonlinearity.  One
marcher, _march, evolves either the solution itself (direct mode) or the
difference U = u - u_closed_form (shifted mode, for kinked payoff data), with
one of two schemes.  It marches on the spectrum: the state and every explicit
term are rfft spectra, and each level makes one inverse transform for the
finiteness check, the checkpoints and the per-level hook (none with feedback
diffusion, whose real-space solve hands back its values).  Under the
identity shift the jump term (symbol - mass) and the propagated source are
Fourier multipliers, so a pricing solve there makes no other transform per
level; only the terms that need grid values (a feedback shift's band apply
and advection, a user nonlinearity, feedback diffusion) compute them, and
their sum costs one forward transform.  The schemes:

* imex_bdf2 — variable-step BDF2 with extrapolated explicit terms (Euler
  startup); each step hands (a0 - dt L) u = rhs to the implicit solve.
* mild_etd2 — a two-stage exponential integrator discretizing the
  variation-of-constants integral; the Fourier multiplier of L is
  exponentiated exactly and the explicit terms enter through phi-function
  weights.

The implicit solve comes in two forms:

* constant diffusion — L is a Fourier multiplier (diffusion plus the constant
  part of the drift), so the solve is one divide of the spectrum;
* feedback diffusion — the coefficient sigma^2 / (2 (1 - rho dpsi/dx)^2)
  varies in x, so the solve is a cyclic tridiagonal system in real space with
  the coefficient frozen at the start of each step (computed once per solve
  for a strategy that ignores tau), and the whole drift goes explicit.  It
  runs with imex_bdf2 in direct mode only.

In shifted mode U starts at zero and is forced by the source h(tau), the
compensated operator acting on the closed form; the early-time steepness of
that source is met with a quadratically graded startup mesh.  While
sigma sqrt(tau) < SOURCE_SWITCH_CELLS * dx the source is analytic.  Under
the identity shift a Merton or Kou measure (LevyMeasure.family in
CLOSED_SOURCES) has it in closed form (BlackScholesClosedForm.jump_source),
one vectorized pass per level over the grid points within the jump radius
of the closed form's live interval; one check compares it with the plain
node sum at the horizon on NODE_CHECK_COLUMNS core points, records the gap
and stops the solve above SOURCE_NODE_TOL.  Every other plan (a feedback
shift, another family, a user density) sums the source over the plan's
nodes: the operator is applied to the closed form at shifted arguments (no
interpolation of the kink), and only the (node, point) pairs with an end in
the closed form's live interval count (outside it the put is c0 + c1 e^x
or below ndtr(-9) K, which the compensated operator annihilates).  Under
the identity shift the closed form is evaluated only where a jump lands in
that interval, and the pairs from a live point to a saturated landing are
summed in closed form from node prefix sums; under a feedback shift each
node block is summed over the grid columns whose pairs can reach it (see
jump_operator.apply_f_tilde_fn).  At the first level tau_a past that
threshold a reader is built from analytic values:

* identity shift — the operator is translation-invariant and commutes with
  the Black-Scholes generator L_BS, so h(tau) = exp((tau - tau_a) L_BS)
  h(tau_a) exactly: each level is the previous one times exp(step L_BS),
  one spectral multiply per level;
* static feedback shift (rho > 0, a strategy that ignores tau) — the source
  is smooth in log tau once the kernel is wide: the barycentric interpolant
  on the N + 1 Chebyshev-Lobatto nodes in log tau on [tau_a, T] (end nodes
  exactly tau_a and T), N = max(8, 4 ceil(2 ln(T / tau_a))), built only
  when N + 1 is below the number of mesh levels past tau_a;
* time-dependent strategy — no reader: the source stays analytic.

The source hands the marcher spectra: an analytic level costs one forward
transform, and the interpolant combines its nodes' spectra.  One rule checks
both readers: the first level read that is not a node is also evaluated
analytically, and a max-norm relative gap on the grid (the read level's
inverse transform against the analytic values) above SOURCE_SWITCH_TOL keeps
that analytic value and every later level analytic.
The node sum's window is checked too: the first analytic level sums every
pair and the window, keeps the full sum, and a gap above SOURCE_SWITCH_TOL
leaves the window off for the rest of the solve.  The counts, tau_a, the
node count, the gaps, the source's form, the share of pairs summed, the
seconds spent on analytic levels (nodes and checks included) and the
solve's transforms are reported in SolveResult.stats.

A cross-checked solve then marches the other scheme on the same operator
plan, time levels and source.  The source keeps its analytic levels by tau
and its decisions, so the second march evaluates only what the first never
reached (mild_etd2's last stage at the horizon, unless it is an
interpolation node) and its field is bit for bit that of the other scheme's
own solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from time import perf_counter
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .bessel import FractionalNorm
from .blackscholes import BlackScholesClosedForm
from .errors import (BlowUpError, ParameterDomainError, SingularityError,
                     StabilityError, ToleranceNotMetError,
                     UnsupportedConfigurationError)
from .grids import Grid, GridField, Transforms
from .jump_operator import (OperatorPlan, _new_stats, apply_f,
                            apply_f_tilde_fn, build_plan, delta_on_plan_nodes)
from .shift import ShiftModel

__all__ = [
    "CauchyProblem", "SchemeConfig", "SolveResult", "DecayReport",
    "heat_semigroup", "build_time_mesh", "solve_direct", "solve_shifted",
    "singular_source_decay_probe", "duhamel_gap",
]


@dataclass(frozen=True)
class CauchyProblem:
    """Problem data for one parabolic solve on a fixed padded grid.

    With nonlinearity None (pricing form) the first-order term is the
    risk-neutral drift r - sigma^2/2 minus the jump compensator
    integral (e^z - 1) nu(dz) (with feedback, the resolved e^xi - 1); a
    callable nonlinearity g(tau, x, u, grad_u) replaces that drift entirely.
    The pricing drift is 1-D: a 2-D problem needs a nonlinearity.
    """

    grid: Grid
    sigma: float
    horizon: float
    rate: float = 0.0
    measure: object | None = None
    shift: ShiftModel | None = None
    nonlinearity: Callable | None = None
    initial: GridField | None = None
    strike: float = 1.0
    option_type: str = "call"
    diffusion_mode: str = "constant"

    def __post_init__(self):
        self.closed_form  # building it checks its four fields
        if not 0 < self.horizon < math.inf:
            raise ParameterDomainError("horizon must be positive and finite")
        if self.diffusion_mode not in ("constant", "feedback"):
            raise ParameterDomainError("diffusion_mode must be constant or feedback")
        if self.diffusion_mode == "feedback":
            if self.grid.dim != 1:
                raise UnsupportedConfigurationError("feedback diffusion is 1-D only")
            if self.shift is None or self.shift.rho == 0.0:
                raise ParameterDomainError(
                    "feedback diffusion needs a shift model with rho > 0")

    @cached_property
    def closed_form(self) -> BlackScholesClosedForm:
        """The problem's Black-Scholes closed form (read-only)."""
        return BlackScholesClosedForm(self.strike, self.rate, self.sigma,
                                      self.option_type)


@dataclass(frozen=True)
class SchemeConfig:
    """Marching scheme selection and step control."""

    scheme: str = "imex_bdf2"
    dt: float = 1e-3
    monitor_gamma: float = 0.0
    cross_check: bool = False
    cross_check_tol: float = 1e-3

    def __post_init__(self):
        if self.scheme not in ("imex_bdf2", "mild_etd2"):
            raise ParameterDomainError("scheme must be imex_bdf2 or mild_etd2")
        if not 0.0 < self.dt < math.inf:
            raise ParameterDomainError("dt must be positive and finite")
        if not self.cross_check_tol >= 0:
            raise ParameterDomainError("cross_check_tol must be nonnegative")


# A solve records the fractional norm at the levels nearest to these many
# equal fractions of its horizon.
CHECKPOINTS = 10
# The source is read from its reader once the Black-Scholes kernel is this
# many grid cells wide (sigma sqrt(tau) >= SOURCE_SWITCH_CELLS * dx);
# earlier, the smoothed kink is too sharp for the grid to carry it.
SOURCE_SWITCH_CELLS = 2.0
# Largest max-norm relative gap accepted between the reader's and the
# analytic source at its check, and between the live-window and the full
# analytic source at the first level.
SOURCE_SWITCH_TOL = 1e-10
# Measure families whose compensated source an identity-shift solve takes
# from BlackScholesClosedForm.jump_source, checked once at the horizon on
# this many core columns against the node sum; a gap above SOURCE_NODE_TOL
# stops the solve.  The node sum is the less exact side.  Measured gaps
# (n_core 128 and 1024, sigma 0.1 to 0.5, horizon 0.1 to 2): at most 6.6e-15
# (Merton) and 5.8e-10 (Kou) on the benchmark rows; 3.5e-9 for Merton
# (0.5, -0.1, 0.2) and 7.6e-6 for the Kou laws the tests price, largest at
# sigma sqrt(T) = 0.03; 1.7e-5 for Merton jump_std 1; and 1.15e-3 for
# make_merton(0.5, -2, 0.1), whose narrow bump falls on one quadrature
# panel.  A tag naming another law (a Kou tag, jump_std 0.25 for 0.2, or
# intensity 0.6 for 0.5 on that Merton density) misses by 0.19 to 0.30.
CLOSED_SOURCES = ("merton", "kou")
NODE_CHECK_COLUMNS = 32
SOURCE_NODE_TOL = 1e-2


@dataclass(frozen=True)
class SolveResult:
    """Terminal state, (tau, norm) checkpoints (see CHECKPOINTS) and time
    levels taus of a solve.

    stats records what the solve did: the jump operator path (operator:
    "fft", "band" or None without a measure); the plan's counters
    plan_build_s, operator_build_s, shift_resolve_s, shift_fp_iterations,
    shift_fallback_points and source_pairs (see OperatorPlan; 0 without a
    measure); the stability_margin dt / bound of the explicit-part check;
    the calls of N (explicit_evaluations); and the source work:
    source_analytic, source_propagated and source_interpolated evaluations,
    source_analytic_s (perf_counter seconds of the analytic ones, window
    check, horizon node check and interpolation nodes included; 0.0
    without a source), source_form ("closed" for the closed-form source of
    a Merton or Kou measure, "nodes" for a node sum, None without a
    source) and source_node_gap (the closed form's horizon check gap, None
    with a node sum), source_switch_tau = tau_a, the level either reader
    starts from, once
    its check passed (None otherwise); the propagator's check gap
    source_switch_gap (None without one); the interpolant's node count
    source_interp_nodes N and its check's source_interp_gap (both None
    when none was built); a check gap above SOURCE_SWITCH_TOL means the
    source stayed analytic from there on; the live-window
    check's source_window_gap and the source_pair_fraction, source_pairs
    (the pairs on which the closed form was evaluated) over
    nodes x n_total x source_analytic (both None without a node sum); and
    the relative L2 gap to the other scheme's solve, cross_check_gap (None
    when no cross-check ran); and fft_transforms, the forward and inverse
    transforms of the march, its source and its checkpoint norms (none at
    monitor_gamma 0; the plan's build is not counted).  The cross-check solve's own work stays
    out of the record.
    """

    field: GridField
    checkpoints: tuple
    taus: np.ndarray
    stats: dict = field(default_factory=dict)


def heat_semigroup(u: GridField, sigma: float, dt: float) -> GridField:
    """Exact diffusion propagation exp(-(sigma^2/2)|k|^2 dt) on the padded box."""
    if dt < 0:
        raise ParameterDomainError("dt must be nonnegative")
    if dt == 0.0:
        return u
    tr = Transforms(u.grid)
    out = tr.apply(np.exp(-0.5 * sigma ** 2 * tr.k2 * dt), u.values)
    return u.with_values(out, time_tag=u.time_tag + dt)


def build_time_mesh(horizon: float, dt: float, grade: bool = False,
                    tau0: float = 0.0) -> np.ndarray:
    """Time levels from tau0 to horizon.

    Uniform by default (dt shrunk to divide the span).  Graded meshes spend
    the first 5% of the span on quadratically growing steps tau_j ~ j (j+1),
    whose step ratios stay below the variable-step BDF2 stability threshold,
    then continue uniformly; the graded head gets 8 times the steps dt would
    give it.  More than 2**24 levels is a domain error.
    """
    span = horizon - tau0
    if span <= 0 or dt <= 0:
        raise ParameterDomainError("need horizon > tau0 and dt > 0")
    levels = span / dt * (1.0 + 7.0 * 0.05 if grade else 1.0)
    if not levels <= 2 ** 24:
        raise ParameterDomainError(
            f"dt {dt:.6g} gives about {levels:.3g} time levels over a span "
            f"of {span:.6g}, more than 2**24")
    if not grade:
        n = max(1, math.ceil(span / dt - 1e-12))
        return tau0 + span * np.arange(n + 1) / n
    head = 0.05 * span
    j_max = max(2, round(8.0 * head / dt))
    j = np.arange(j_max + 1, dtype=float)
    graded = tau0 + head * (j * (j + 1.0)) / (j_max * (j_max + 1.0))
    # geometric ramp from the graded tail step up to dt keeps the junction
    # ratio at or below 2 before the uniform stretch takes over
    levels = [float(graded[-1])]
    end = tau0 + span
    step = 2.0 * head / (j_max + 1.0)
    while True:
        remaining = end - levels[-1]
        n_left = max(1, math.ceil(remaining / dt - 1e-12))
        du = remaining / n_left
        if du <= 2.0 * step * (1.0 + 1e-12):
            levels.extend((levels[-1] + remaining * np.arange(1, n_left + 1)
                           / n_left).tolist())
            break
        step = min(2.0 * step, dt, 0.5 * remaining)
        levels.append(levels[-1] + step)
    return np.concatenate([graded[:-1], np.asarray(levels)])


def _phis(z: np.ndarray):
    """exp, phi1, phi2 of a complex multiplier array, series-stable near 0
    (the series is evaluated only on the entries with |z| < 1e-3)."""
    e = np.exp(z)
    small = np.abs(z) < 1e-3
    zs = np.where(small, 1.0, z)
    p1 = (e - 1.0) / zs
    p2 = (e - 1.0 - z) / (zs * zs)
    s = z[small]
    p1[small] = 1.0 + s / 2.0 + s * s / 6.0 + s ** 3 / 24.0
    p2[small] = 0.5 + s / 6.0 + s * s / 24.0 + s ** 3 / 120.0
    return e, p1, p2


# mild_etd2 keeps the phi-functions of this many latest step sizes: the
# uniform stretch's steps alternate between neighbouring floats
_PHIS_KEPT = 4


def _march(tr: Transforms, L_hat: np.ndarray | None, implicit, N_fn,
           v0: np.ndarray, taus: np.ndarray, scheme: SchemeConfig,
           on_level) -> np.ndarray:
    """Advance v0 across taus on its spectrum; returns the terminal values.

    The state and every explicit term live in Fourier space (tr's rfft
    storage).  N_fn(tau, u_hat, v_or_None) returns the spectrum of the full
    explicit right side at the state with spectrum u_hat; v is that state's
    grid values where the marcher has them (at each level) and None at
    mild_etd2's stage, where a term that needs grid values inverts u_hat
    itself.  implicit(tau, a0, dt, rhs_hat) returns (u_hat, values): the
    spectrum solving (a0 - dt L) u = rhs and, when the solve made them on
    the grid, its values (None otherwise); mild_etd2 exponentiates the
    multiplier L_hat instead.  A level whose values the solve did not hand
    back costs one inverse transform of the state.  The values are checked
    for finiteness and on_level(i, taus[i], values) sees every level i >= 1.
    """
    v = np.array(v0, dtype=float)
    u_hat = tr.fwd(v)
    mild = scheme.scheme == "mild_etd2"
    u_hat_prev = n_prev = dt_prev = None
    phis = {}  # dt -> _phis(dt L_hat), least recently used first
    for i in range(taus.size - 1):
        tau = float(taus[i])
        dt = float(taus[i + 1] - taus[i])
        n_cur = N_fn(tau, u_hat, v)
        v = None
        if mild:
            E, P1, P2 = phis[dt] = phis.pop(dt, None) or _phis(dt * L_hat)
            if len(phis) > _PHIS_KEPT:
                del phis[next(iter(phis))]
            a_hat = E * u_hat + dt * P1 * n_cur
            u_hat = a_hat + dt * P2 * (N_fn(tau + dt, a_hat, None) - n_cur)
        else:
            if n_prev is None:
                a0, rhs_hat = 1.0, u_hat + dt * n_cur
            else:
                rho = dt / dt_prev
                a0 = (1.0 + 2.0 * rho) / (1.0 + rho)
                a2 = rho * rho / (1.0 + rho)
                n_ext = (1.0 + rho) * n_cur - rho * n_prev
                rhs_hat = (1.0 + rho) * u_hat - a2 * u_hat_prev + dt * n_ext
            u_hat_prev = u_hat
            u_hat, v = implicit(tau, a0, dt, rhs_hat)
        if v is None:
            v = tr.inv(u_hat)
        if not np.all(np.isfinite(v)):
            raise BlowUpError("state became non-finite", step=i + 1,
                              tau=float(taus[i + 1]))
        n_prev = n_cur
        dt_prev = dt
        on_level(i + 1, float(taus[i + 1]), v)
    return v


def _feedback_coefficient(problem: CauchyProblem, tau: float, x: np.ndarray,
                          sigma2: float) -> np.ndarray:
    psi = problem.shift.strategy.values
    rho = problem.shift.rho
    eps = problem.grid.dx
    dpsi = (8.0 * (psi(tau, x + eps) - psi(tau, x - eps))
            - (psi(tau, x + 2 * eps) - psi(tau, x - 2 * eps))) / (12.0 * eps)
    gap = 1.0 - rho * dpsi
    worst = float(np.max(np.abs(rho * dpsi)))
    if worst > 0.9:
        raise ParameterDomainError(
            "feedback diffusion denominator margin violated: "
            f"sup |rho dpsi/dx| = {worst:.3f} > 0.9")
    return sigma2 / (2.0 * gap ** 2)


def _solve_cyclic_tridiag(sub: np.ndarray, dia: np.ndarray, sup: np.ndarray,
                          rhs: np.ndarray) -> np.ndarray:
    """Solve a periodic tridiagonal system by one rank-one correction.

    sub[i] couples row i to i-1 (sub[0] is the wrap corner), sup[i] to i+1
    (sup[-1] is the wrap corner).  The corners go into u v^T with
    u = (gamma, 0, ..., 0, sup[-1]) and v = (1, 0, ..., 0, sub[0] / gamma);
    the banded remainder is solved once for rhs and once for u, and
    Sherman-Morrison combines the two.
    """
    n = dia.size
    gamma = -dia[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1] = dia
    ab[1, 0] -= gamma
    ab[1, -1] -= sub[0] * sup[-1] / gamma
    ab[2, :-1] = sub[1:]
    u = np.zeros(n)
    u[0] = gamma
    u[-1] = sup[-1]
    # non-finite input passes through to the marcher's blow-up check
    y, q = solve_banded((1, 1), ab, np.column_stack([rhs, u]),
                        check_finite=False).T
    factor = (y[0] + sub[0] * y[-1] / gamma) / (1.0 + q[0] + sub[0] * q[-1] / gamma)
    return y - factor * q


def _problem_plan(problem: CauchyProblem) -> OperatorPlan | None:
    """A new jump operator plan for the problem (None without a measure)."""
    if problem.measure is None:
        return None
    return build_plan(problem.grid, problem.measure, problem.shift)


def _source_stats() -> dict:
    return {"source_analytic": 0, "source_analytic_s": 0.0,
            "source_propagated": 0, "source_interpolated": 0,
            "source_switch_tau": None, "source_switch_gap": None,
            "source_interp_nodes": None, "source_interp_gap": None,
            "source_window_gap": None, "source_pair_fraction": None,
            "source_form": None, "source_node_gap": None,
            "fft_transforms": 0}


def _interp_node_count(tau_a: float, horizon: float) -> int:
    """N of the log-tau Chebyshev interpolant of the source on
    [tau_a, horizon]: four per half unit of ln(horizon / tau_a), and at
    least 8, below which the interpolant misses SOURCE_SWITCH_TOL."""
    return max(8, 4 * math.ceil(2.0 * math.log(horizon / tau_a)))


def _compensated_source(problem: CauchyProblem, plan: OperatorPlan,
                        taus: np.ndarray, keep_levels: bool = False
                        ) -> Callable[[float, dict], np.ndarray]:
    """source(tau, stats): the spectrum (rfft storage) of the compensated
    operator on the closed form; its counts, seconds and transforms go into
    the caller's stats.

    Analytic up to tau_a, then read from the checked reader built there;
    see the module docstring.  An analytic level is the closed form of a
    Merton or Kou family when the plan has no shift (its first call checks
    it against the node sum at the horizon, taus[-1]), and otherwise the
    node sum on the checked live window.  taus, the
    solve's time levels, place the interpolant's nodes and decide whether it
    pays.  Each march calls it in nondecreasing tau (mild_etd2 twice in a
    row at the next level's tau, hence the kept latest value).  keep_levels
    keeps each analytic spectrum by tau to read back, so a second march from
    tau = 0 (the cross-check's) adds only levels the first never reached.
    """
    g = problem.grid
    tr = Transforms(g)
    # call and put share the source: the compensated operator kills the
    # affine gap between the two closed forms, and the put profile keeps
    # the evaluation free of exponential growth
    bs = replace(problem.closed_form, option_type="put")
    identity = plan.shift is None
    family = plan.measure.family
    closed = identity and family is not None and family[0] in CLOSED_SOURCES
    count_key = "source_propagated" if identity else "source_interpolated"
    gap_key = "source_switch_gap" if identity else "source_interp_gap"
    window = None  # live-window decision, taken at the first analytic level
    levels = {} if keep_levels else None
    # read(tau) -> (spectrum, is a node), built at tau_a; False once the
    # source stays analytic (time-dependent strategy, no interpolant, failed
    # check)
    reader = False if not identity and plan.shift.strategy.time_dependent \
        else None
    tau_a, checked = 0.0, False
    pairs_per_level = g.n_total * plan.wh.size
    latest = (None, None)  # (tau, source(tau)) of the latest call
    xv, reach = g.axis(), plan.measure.jump_radius
    node_checked = False

    def closed_values(tau: float, stats: dict) -> np.ndarray:
        """The closed form on the columns within the jump radius of the
        live interval, 0.0 elsewhere (the node sum's window truncates the
        same way), after the horizon check on the first call."""
        nonlocal node_checked
        if not node_checked:
            stats["source_node_gap"] = _node_gap(plan, bs, float(taus[-1]))
            node_checked = True
        lo, hi, _, _ = bs.live_interval(tau)
        cols = slice(np.searchsorted(xv, lo - reach),
                     np.searchsorted(xv, hi + reach, side="right"))
        h = np.zeros(g.n_total)
        h[cols] = bs.jump_source(tau, xv[cols], family)
        return h

    def grid_values(tau: float, stats: dict) -> np.ndarray:
        """The analytic level on the grid."""
        nonlocal window
        t0 = perf_counter()
        if closed:
            h = closed_values(tau, stats)
        else:
            fn, dfn = (lambda p: bs.u(tau, p)), (lambda p: bs.du_dx(tau, p))
            live = bs.live_interval(tau) if window else None
            h = apply_f_tilde_fn(plan, fn, dfn, tau, live)
            if window is None:
                h_win = apply_f_tilde_fn(plan, fn, dfn, tau,
                                         bs.live_interval(tau))
                gap = _rel_max(h_win, h)
                window = gap <= SOURCE_SWITCH_TOL
                stats["source_window_gap"] = gap
        if not np.all(np.isfinite(h)):
            raise SingularityError(
                f"compensated source is non-finite at tau={tau:.3e}; "
                "use a finer graded startup mesh")
        stats["source_analytic"] += 1
        stats["source_form"] = "closed" if closed else "nodes"
        if not closed:
            stats["source_pair_fraction"] = plan.stats["source_pairs"] / (
                pairs_per_level * stats["source_analytic"])
        stats["source_analytic_s"] += perf_counter() - t0
        return h

    def spectrum(tau: float, h: np.ndarray, stats: dict) -> np.ndarray:
        """h's spectrum, kept by tau when levels are kept."""
        stats["fft_transforms"] += 1
        h_hat = tr.fwd(h)
        if levels is not None:
            levels[tau] = h_hat
        return h_hat

    def analytic(tau: float, stats: dict) -> np.ndarray:
        if levels is not None and tau in levels:
            return levels[tau]
        return spectrum(tau, grid_values(tau, stats), stats)

    def propagator(h_hat: np.ndarray):
        """h(tau) = exp((tau - tau_a) L_BS) h(tau_a), advanced from the
        latest read by one multiply with exp(step L_BS), kept for the
        _PHIS_KEPT latest steps; a read before the latest (the cross-check
        march starts again) restarts from tau_a."""
        L_bs = (-0.5 * problem.sigma ** 2 * tr.k2
                + tr.ik[0] * (problem.rate - 0.5 * problem.sigma ** 2))
        steps = {}  # step -> exp(step L_BS), least recently used first
        state = (tau_a, h_hat)

        def read(tau):
            nonlocal state
            if tau < state[0]:
                state = (tau_a, h_hat)
            step = tau - state[0]
            E = steps.pop(step, None)
            if E is None:
                E = np.exp(step * L_bs)
            steps[step] = E
            if len(steps) > _PHIS_KEPT:
                del steps[next(iter(steps))]
            state = (tau, E * state[1])
            return state[1], False
        return read

    def interpolant(h_hat: np.ndarray, stats: dict):
        """Barycentric interpolant on N + 1 Chebyshev-Lobatto nodes in log tau
        on [tau_a, T]; False unless more than N + 1 levels follow tau_a."""
        later = taus[taus > tau_a]
        n = _interp_node_count(tau_a, later[-1]) if later.size else 0
        if n + 1 >= later.size:
            return False
        t = np.exp(np.log(tau_a) + np.log(later[-1] / tau_a)
                   * 0.5 * (1.0 - np.cos(np.pi * np.arange(n + 1) / n)))
        t[0], t[-1] = tau_a, later[-1]
        w = (-1.0) ** np.arange(n + 1)
        w[[0, -1]] *= 0.5
        values = np.array([h_hat]
                          + [analytic(float(tj), stats) for tj in t[1:]])
        s_nodes = np.log(t)
        stats["source_interp_nodes"] = n

        def read(tau):
            d = math.log(tau) - s_nodes
            hit = np.flatnonzero(d == 0.0)
            if hit.size:
                return values[hit[0]], True
            c = w / d
            # real weights on the interleaved real and imaginary parts: a
            # real vector times a complex matrix takes about 60 times longer
            return ((c / np.sum(c)) @ values.view(float)).view(complex), False
        return read

    def evaluate(tau: float, stats: dict) -> np.ndarray:
        nonlocal reader, tau_a, checked
        if reader is False or tau <= tau_a or \
                problem.sigma * math.sqrt(tau) < SOURCE_SWITCH_CELLS * g.dx:
            return analytic(tau, stats)
        if reader is None:
            tau_a, h_hat = tau, analytic(tau, stats)
            reader = propagator(h_hat) if identity \
                else interpolant(h_hat, stats)
            return h_hat
        h_read, node = reader(tau)
        if not (node or checked):
            h = grid_values(tau, stats)
            stats["fft_transforms"] += 1
            gap = stats[gap_key] = _rel_max(tr.inv(h_read), h)
            if gap > SOURCE_SWITCH_TOL:
                reader = False
                return spectrum(tau, h, stats)
            checked = True
            stats["source_switch_tau"] = tau_a
        stats[count_key] += 1
        return h_read

    def source(tau: float, stats: dict) -> np.ndarray:
        nonlocal latest
        if latest[0] != tau:
            latest = (tau, evaluate(tau, stats))
        return latest[1]

    return source


def _node_gap(plan: OperatorPlan, bs: BlackScholesClosedForm,
              tau: float) -> float:
    """Max-norm relative gap of the closed-form source at tau to the plain
    node sum on NODE_CHECK_COLUMNS evenly spaced core columns; above
    SOURCE_NODE_TOL the family tag does not describe the plan's density
    (or the nodes miss it), and the solve stops."""
    g = plan.grid
    x = g.axis()[g.pad + np.linspace(0, g.n_core - 1,
                                     NODE_CHECK_COLUMNS).astype(int)]
    z = plan.z_nodes[:, None]
    nodes = plan.wh @ (bs.u(tau, x + z) - bs.u(tau, x)
                       - np.expm1(z) * bs.du_dx(tau, x))
    gap = _rel_max(bs.jump_source(tau, x, plan.measure.family), nodes)
    if not gap <= SOURCE_NODE_TOL:
        raise ToleranceNotMetError(
            f"closed-form {plan.measure.family[0]} source misses the node sum "
            f"by {gap:.3e} at tau={tau:.6g}, more than {SOURCE_NODE_TOL:.1e}: "
            "the measure's family does not match its density, or the plan's "
            "nodes do not resolve it", error=gap)
    return gap


def _prepare_rhs(problem: CauchyProblem, scheme: SchemeConfig,
                 source: Callable | None, plan: OperatorPlan | None):
    """Assemble (tr, L_hat, implicit, N_fn, stats) for one solve on the
    problem's plan, after the stability check (_check_stability).  A
    shifted solve passes its compensated source (see _compensated_source),
    which records its work in this solve's stats; tr is the Transforms the
    march shares.

    With constant diffusion the implicit part is the Fourier multiplier
    L_hat: diffusion plus, in pricing form, the constant part of the drift
    (identity-shift drift correction folded in so the explicit remainder is
    bounded).  With feedback diffusion L_hat is None, the implicit solve is
    the cyclic tridiagonal one, and that constant drift joins N_fn.  N_fn
    (see _march) carries the jump operator's bounded part, the x-dependent
    drift excess, the analytic source (shifted mode), and any user
    nonlinearity; only the terms that need grid values compute them.
    """
    g = problem.grid
    feedback = problem.diffusion_mode == "feedback"
    if feedback and (scheme.scheme != "imex_bdf2" or scheme.cross_check):
        raise UnsupportedConfigurationError(
            "feedback diffusion is implemented for imex_bdf2 only, so it has "
            "no mild_etd2 cross-check")
    sigma2 = problem.sigma ** 2
    if plan is not None:
        sigma2 += plan.sigma2_correction

    pricing = problem.nonlinearity is None
    if pricing and g.dim != 1:
        raise UnsupportedConfigurationError(
            "the pricing drift is one-dimensional; a 2-D problem needs a "
            "nonlinearity")
    mean0 = delta00 = 0.0
    if plan is not None and g.dim == 1:
        mean0, delta00 = plan.mean_jump[0], plan.delta0

    tr = Transforms(g)
    drift = (problem.rate - 0.5 * sigma2 - delta00 - mean0) if pricing else 0.0
    if feedback:
        L_hat = None
        x = g.axis()
        inv_dx2 = 1.0 / g.dx ** 2
        # a static strategy's psi ignores tau: its coefficient is computed
        # (and its margin checked) once, at the first level
        frozen = []

        def implicit(tau, a0, dt, rhs_hat):
            if frozen:
                c = frozen[0]
            else:
                c = _feedback_coefficient(problem, tau, x, sigma2)
                if not problem.shift.strategy.time_dependent:
                    frozen.append(c)
            off = -dt * c * inv_dx2
            v = _solve_cyclic_tridiag(off, a0 + 2.0 * dt * c * inv_dx2, off,
                                      tr.inv(rhs_hat))
            return tr.fwd(v), v
    else:
        L_hat = -0.5 * sigma2 * tr.k2 + (tr.ik[0] * drift if g.dim == 1 else 0j)

        def implicit(tau, a0, dt, rhs_hat):
            return rhs_hat / (a0 - dt * L_hat), None

    fft_fast = plan is not None and plan.shift is None
    quadrature = plan is not None and not fft_fast
    stats = {"operator": "fft" if fft_fast else "band" if quadrature else None,
             "explicit_evaluations": 0, **_source_stats(),
             "stability_margin": _check_stability(problem, scheme, plan)}
    coords = g.axis() if g.dim == 1 else g.meshes()
    # symbol - mass: the advection-free part, spectral radius <= 2 mass
    bounded = plan.symbol_conv - plan.mass if fft_fast else None
    # explicit first-order term of the pricing drift: the x-dependent excess
    # on the quadrature path, plus the constant drift that L_hat leaves out
    # with feedback diffusion
    advects = pricing and (quadrature or feedback)
    drift_out = drift if feedback else 0.0
    # the terms that need grid values and gradients
    on_grid = quadrature or feedback or not pricing

    def N_fn(tau: float, u_hat: np.ndarray, v: np.ndarray | None):
        stats["explicit_evaluations"] += 1
        out = bounded * u_hat if fft_fast else np.zeros_like(u_hat)
        if on_grid:
            if v is None:
                v = tr.inv(u_hat)
            grads = tr.grad(u_hat)
            real = np.zeros_like(v)
            if quadrature:
                real += apply_f(plan, GridField(g, v, tau), grads, tau).values
            if advects:
                coef = drift_out + mean0
                if quadrature:
                    coef = coef - (delta_on_plan_nodes(plan, tau) - delta00)
                real += coef * grads[0]
            if not pricing:
                real += problem.nonlinearity(tau, coords, v,
                                             grads[0] if g.dim == 1 else grads)
            out += tr.fwd(real)
        if source is not None:
            out += source(tau, stats)
        if g.dim == 1:
            # the spectrum of a real field has a real Nyquist coefficient;
            # ik drift in L_hat makes the state's complex
            out[-1] = out[-1].real
        return out

    return tr, L_hat, implicit, N_fn, stats


def _check_stability(problem: CauchyProblem, scheme: SchemeConfig,
                     plan: OperatorPlan | None) -> float:
    """Explicit-part bound vs the step, before any marching; both schemes
    take the explicit terms at the same Lipschitz bound.  Returns the
    stability margin dt / bound (0.0 when no explicit term is bounded)."""
    if problem.diffusion_mode == "feedback":
        # the whole drift is explicit: an advection bound on dt / dx
        b_est = abs(problem.rate) + 0.5 * problem.sigma ** 2
        bound = problem.grid.dx / b_est
        if scheme.dt > bound:
            raise StabilityError(
                f"dt = {scheme.dt:.3e} violates the explicit advection bound "
                f"{bound:.3e} of feedback mode")
        return scheme.dt / bound
    if plan is None:
        return 0.0
    lip = 2.0 * plan.mass
    if plan.shift is not None:
        k_max = math.pi / problem.grid.dx
        dvals = delta_on_plan_nodes(plan, 0.0)
        lip += k_max * (abs(float(plan.mean_jump[0]))
                        + float(np.max(np.abs(dvals - plan.delta0))))
    if lip == 0.0:
        return 0.0
    bound = 1.0 / lip
    if scheme.dt > bound:
        raise StabilityError(
            f"dt = {scheme.dt:.3e} exceeds the explicit-part bound "
            f"{bound:.3e}")
    return scheme.dt / bound


def _run(problem: CauchyProblem, scheme: SchemeConfig, v0: np.ndarray,
         taus: np.ndarray, shifted: bool, plan: OperatorPlan | None,
         source: Callable | None = None, on_level=None) -> SolveResult:
    """One full solve on the plan: march, checkpoints, reassembly and
    cross-check.

    In shifted mode v0 and the marched state are the difference U, forced
    by the compensated source (built here unless passed in; none without a
    plan), and the closed form is added back at the horizon.  The
    cross-check marches the other scheme on the same plan, taus and source.
    on_level(tau, values), when given, sees every level after taus[0].
    """
    g = problem.grid
    if shifted and plan is not None and source is None:
        source = _compensated_source(problem, plan, taus, scheme.cross_check)
    tr, L_hat, implicit, N_fn, stats = _prepare_rhs(problem, scheme, source,
                                                    plan)
    norm = FractionalNorm(g, scheme.monitor_gamma)
    T = float(taus[-1])
    mark_set = {int(np.argmin(np.abs(taus - T * (j + 1) / CHECKPOINTS)))
                for j in range(CHECKPOINTS)} - {0}
    checkpoints = []

    def level(i, tau, v):
        if i in mark_set:
            checkpoints.append((tau, norm(GridField(g, v, tau))))
        if on_level is not None:
            on_level(tau, v)

    v_T = _march(tr, L_hat, implicit, N_fn, v0, taus, scheme, level)
    stats["fft_transforms"] += tr.count + norm.transforms.count
    stats.update(plan.stats if plan is not None else _new_stats())
    if shifted:
        T = problem.horizon
        v_T = v_T + problem.closed_form.u(T, g.axis())
    stats["cross_check_gap"] = None
    if scheme.cross_check:
        other = "mild_etd2" if scheme.scheme == "imex_bdf2" else "imex_bdf2"
        alt = _run(problem, replace(scheme, scheme=other, cross_check=False),
                   v0, taus, shifted, plan, source)
        gap = stats["cross_check_gap"] = _rel_l2(v_T, alt.field.values)
        if gap > scheme.cross_check_tol:
            raise ToleranceNotMetError(
                f"scheme cross-check gap {gap:.3e} exceeds "
                f"{scheme.cross_check_tol:.3e}", error=gap)
    return SolveResult(GridField(g, v_T, T), tuple(checkpoints), taus,
                       stats=stats)


def _direct_taus(problem: CauchyProblem, scheme: SchemeConfig) -> np.ndarray:
    """A direct solve's uniform time mesh, from its checked initial field."""
    if problem.initial is None:
        raise ParameterDomainError("direct solves need an initial field")
    if problem.initial.grid != problem.grid:
        raise ParameterDomainError("initial field lives on a different grid")
    return build_time_mesh(problem.horizon, scheme.dt, grade=False,
                           tau0=problem.initial.time_tag)


def solve_direct(problem: CauchyProblem, scheme: SchemeConfig) -> SolveResult:
    """March the problem's initial field to the horizon.

    Smooth initial data; uniform time mesh.  Feedback diffusion runs here
    (imex_bdf2 only).  The kinked-payoff pricing path is solve_shifted.
    """
    taus = _direct_taus(problem, scheme)
    return _run(problem, scheme, problem.initial.values, taus, shifted=False,
                plan=_problem_plan(problem))


def solve_shifted(problem: CauchyProblem, scheme: SchemeConfig) -> SolveResult:
    """Price with kinked payoff data by evolving U = u - u_closed_form.

    U starts identically zero; the payoff kink and the exponential growth
    both live in the closed form, which also supplies the analytic source.
    Returns the reassembled u as `field`.
    """
    if problem.grid.dim != 1:
        raise UnsupportedConfigurationError("shifted solves are 1-D only")
    if problem.diffusion_mode == "feedback":
        raise UnsupportedConfigurationError(
            "feedback diffusion runs through solve_direct")
    if problem.nonlinearity is not None:
        raise UnsupportedConfigurationError(
            "shifted solves use the built-in pricing drift")
    taus = build_time_mesh(problem.horizon, scheme.dt, grade=True)
    return _run(problem, scheme, np.zeros(problem.grid.n_total), taus,
                shifted=True, plan=_problem_plan(problem))


def _rel_max(approx: np.ndarray, exact: np.ndarray) -> float:
    """Max-norm gap of approx to exact, relative to exact's max norm."""
    return float(np.max(np.abs(approx - exact))) \
        / max(float(np.max(np.abs(exact))), 1e-300)


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    den = float(np.linalg.norm(a))
    return float(np.linalg.norm(a - b)) / (den if den > 0 else 1.0)


@dataclass(frozen=True)
class DecayReport:
    slope: float
    bound: float
    passed: bool
    skipped: bool
    taus: tuple
    norms: tuple


def singular_source_decay_probe(problem: CauchyProblem,
                                gamma: float) -> DecayReport:
    """Log-log slope of the compensated-source L2 norm at nine times from
    1e-4 to 0.1.

    Each source is summed on the closed form's live window, as every
    analytic level of a solve is.  Passes when the fitted slope is no
    steeper than -(2 gamma - 1)(1/2 - 1/(2p)) minus a 0.1 slack, for the L^p
    norm p = 2; a measure-free problem is reported as skipped.
    """
    if not 0.5 <= gamma < 1.0:
        raise ParameterDomainError("gamma must satisfy 1/2 <= gamma < 1")
    bound = -(2.0 * gamma - 1.0) * 0.25 - 0.1
    if problem.measure is None:
        return DecayReport(0.0, bound, True, True, (), ())
    plan = _problem_plan(problem)
    bs = replace(problem.closed_form, option_type="put")
    taus = np.geomspace(1e-4, 1e-1, 9)
    norms = []
    dx = problem.grid.dx
    for tau in taus.tolist():
        h = apply_f_tilde_fn(plan, lambda q: bs.u(tau, q),
                             lambda q: bs.du_dx(tau, q), tau,
                             bs.live_interval(tau))
        norms.append(float(np.sqrt(np.sum(h ** 2) * dx)))
    slope = float(np.polyfit(np.log(taus), np.log(norms), 1)[0])
    return DecayReport(slope, bound, slope >= bound, False,
                       tuple(taus.tolist()), tuple(norms))


def duhamel_gap(problem: CauchyProblem, scheme: SchemeConfig) -> float:
    """Residual of the variation-of-constants identity along a direct solve.

    Marches solve_direct's problem on its mesh, keeping every level through
    _run's per-level hook, then re-integrates the levels' explicit terms
    against the exact semigroup by trapezoid and compares with the marched
    states.  Returns the worst relative L2 gap over three target times.
    Constant diffusion only: feedback diffusion has no Fourier-diagonal
    semigroup.
    """
    if problem.diffusion_mode == "feedback":
        raise UnsupportedConfigurationError(
            "the Duhamel identity needs constant diffusion")
    taus = _direct_taus(problem, scheme)
    plan = _problem_plan(problem)
    vals = [problem.initial.values]
    _run(problem, scheme, vals[0], taus, shifted=False, plan=plan,
         on_level=lambda tau, v: vals.append(v))
    tr, L_hat, _, N_fn, _ = _prepare_rhs(problem, scheme, None, plan)
    times = taus.tolist()
    n_hats = [N_fn(t, tr.fwd(v), v) for t, v in zip(times, vals)]
    targets = np.linspace(len(times) // 3, len(times) - 1, 3).astype(int)
    worst = 0.0
    u0_hat = tr.fwd(vals[0])
    for m in targets:
        tm = times[m]
        acc = np.exp(L_hat * (tm - times[0])) * u0_hat
        for i in range(m):
            dt = times[i + 1] - times[i]
            acc += 0.5 * dt * (np.exp(L_hat * (tm - times[i])) * n_hats[i]
                               + np.exp(L_hat * (tm - times[i + 1])) * n_hats[i + 1])
        worst = max(worst, _rel_l2(vals[m], tr.inv(acc)))
    return worst
