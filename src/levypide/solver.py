"""Time integration of the transformed jump-diffusion Cauchy problems.

Every solve is one abstract semilinear problem v' = L v + N(tau, v): a linear
part L taken implicitly and an explicit remainder N carrying the jump
operator, the drift excess, the source and any user nonlinearity.  One
marcher, _march, evolves either the solution itself (direct mode) or the
difference U = u - u_closed_form (shifted mode, for kinked payoff data), with
one of two schemes:

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
  the coefficient frozen at the start of each step, and the whole drift goes
  explicit.  It runs with imex_bdf2 in direct mode only.

step_imex and step_mild are single _march steps; the previous level seeds a
BDF2 continuation, and the operator plan built by a problem's first step is
reused by its later ones.

In shifted mode U starts at zero and is forced by the source h(tau), the
compensated operator acting on the closed form; the early-time steepness of
that source is met with a quadratically graded startup mesh.  The source is
built in two phases:

* analytic phase — while sigma sqrt(tau) < SOURCE_SWITCH_CELLS * dx the
  operator is applied to the closed form at shifted arguments (no
  interpolation of the kink).  Only the (node, point) pairs with an end in
  the closed form's live interval are summed: outside it the put is
  c0 + c1 e^x or below ndtr(-9) K, which the compensated operator
  annihilates;
* propagated phase — with the identity shift the operator is
  translation-invariant and commutes with the Black-Scholes generator L_BS,
  so h(tau) = exp((tau - tau_s) L_BS) h(tau_s) exactly.  The first analytic
  level past the threshold becomes the anchor tau_s, and later levels are
  one spectral multiply of its transform.

The switch is verified: the first propagated level is also evaluated
analytically, and a max-norm relative gap above SOURCE_SWITCH_TOL keeps the
analytic value and moves the anchor to that level, to be verified again at
the next one.  Feedback shifts (rho > 0) and any tau at or before the anchor
stay analytic.  The window is verified too: the first analytic level sums
every pair and the window, keeps the full sum, and a gap above
SOURCE_SWITCH_TOL leaves the window off for the rest of the solve.  The
counts, the anchor, both gaps and the share of pairs summed are reported in
SolveResult.stats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    "heat_semigroup", "build_time_mesh", "step_imex", "step_mild",
    "solve_direct", "solve_shifted",
    "singular_source_decay_probe", "duhamel_gap",
]


@dataclass(frozen=True)
class CauchyProblem:
    """Problem data for one parabolic solve on a fixed padded grid.

    With nonlinearity None (pricing form) the first-order term is the
    risk-neutral drift r - sigma^2/2 minus the jump compensator
    integral (e^z - 1) nu(dz) (with feedback, the resolved e^xi - 1); a
    callable nonlinearity g(tau, x, u, grad_u) replaces that drift entirely.
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
        if self.sigma <= 0:
            raise ParameterDomainError("sigma must be positive")
        if self.horizon <= 0:
            raise ParameterDomainError("horizon must be positive")
        if self.strike <= 0:
            raise ParameterDomainError("strike must be positive")
        if self.option_type not in ("call", "put"):
            raise ParameterDomainError("option_type must be call or put")
        if self.diffusion_mode not in ("constant", "feedback"):
            raise ParameterDomainError("diffusion_mode must be constant or feedback")
        if self.diffusion_mode == "feedback":
            if self.grid.dim != 1:
                raise UnsupportedConfigurationError("feedback diffusion is 1-D only")
            if self.shift is None or self.shift.rho == 0.0:
                raise ParameterDomainError(
                    "feedback diffusion needs a shift model with rho > 0")

    @property
    def dim(self) -> int:
        return self.grid.dim

    @cached_property
    def _step_plan(self) -> OperatorPlan | None:
        """The operator plan of single steps, built by the first one and
        reused by the next ones.  Solves build their own plan and drop it
        with their result."""
        return _problem_plan(self)


@dataclass(frozen=True)
class SchemeConfig:
    """Marching scheme selection and step control."""

    scheme: str = "imex_bdf2"
    dt: float = 1e-3
    checkpoint_count: int = 10
    monitor_gamma: float = 0.0
    cross_check: bool = False
    cross_check_tol: float = 1e-3

    def __post_init__(self):
        if self.scheme not in ("imex_bdf2", "mild_etd2"):
            raise ParameterDomainError("scheme must be imex_bdf2 or mild_etd2")
        if self.dt <= 0:
            raise ParameterDomainError("dt must be positive")
        if self.checkpoint_count < 1:
            raise ParameterDomainError("checkpoint_count must be >= 1")


# The source is propagated once the Black-Scholes kernel is this many grid
# cells wide (sigma sqrt(tau) >= SOURCE_SWITCH_CELLS * dx); earlier, the
# smoothed kink is too sharp for the grid to carry it.
SOURCE_SWITCH_CELLS = 2.0
# Largest max-norm relative gap accepted between the propagated and the
# analytic source at the switch, and between the live-window and the full
# analytic source at the first level.
SOURCE_SWITCH_TOL = 1e-10


@dataclass(frozen=True)
class SolveResult:
    """Terminal state plus checkpoint diagnostics of one solve.

    stats records what the solve did: the jump operator path (operator:
    "fft", "band" or None without a measure); the plan's counters
    operator_build_s, shift_resolve_s, shift_fp_iterations,
    shift_fallback_points and source_pairs (see OperatorPlan; 0 without a
    measure); the
    stability_margin dt / bound of the explicit-part check; the calls of N
    (explicit_evaluations); and the source work: source_analytic and
    source_propagated evaluations, source_reanchors (failed switch
    verifications), the verified anchor source_switch_tau and its
    source_switch_gap (both None when the source never switched), the
    live-window check's source_window_gap and the source_pair_fraction,
    source_pairs over nodes x n_total x source_analytic (both None without
    a source); and the relative L2 gap to the other scheme's solve,
    cross_check_gap (None when no cross-check ran).
    """

    field: GridField
    checkpoints: tuple
    taus: np.ndarray
    trajectory: tuple = ()
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
    give it.
    """
    span = horizon - tau0
    if span <= 0 or dt <= 0:
        raise ParameterDomainError("need horizon > tau0 and dt > 0")
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
    """exp, phi1, phi2 of a complex multiplier array, series-stable near 0."""
    e = np.exp(z)
    small = np.abs(z) < 1e-3
    zs = np.where(small, 1.0, z)
    p1 = np.where(small, 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0,
                  (e - 1.0) / zs)
    p2 = np.where(small, 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0,
                  (e - 1.0 - z) / (zs * zs))
    return e, p1, p2


def _march(grid: Grid, L_hat: np.ndarray | None, implicit, N_fn,
           v0: np.ndarray, taus: np.ndarray, scheme: SchemeConfig,
           needs_grad: bool, on_level=None, store_stride: int = 0,
           history: tuple | None = None):
    """Advance v0 across taus; returns (terminal values, stored trajectory).

    N_fn(tau, values, grads_or_None) is the full explicit right side.
    implicit(tau, a0, dt, rhs_hat) returns the spectrum u_hat solving
    (a0 - dt L) u = rhs; mild_etd2 exponentiates the multiplier L_hat
    instead.  history = (tau_prev, v_prev) seeds a BDF2 continuation in place
    of the Euler startup step.
    """
    tr = Transforms(grid)

    def explicit(tau, v_hat, v):
        return N_fn(tau, v, tr.grad(v_hat) if needs_grad else None)

    v = np.array(v0, dtype=float)
    u_hat = tr.fwd(v)
    stored = [(float(taus[0]), v.copy())] if store_stride else []
    mild = scheme.scheme == "mild_etd2"
    u_hat_prev = n_prev = dt_prev = None
    if history is not None:
        tau_prev, v_prev = history
        u_hat_prev = tr.fwd(v_prev)
        n_prev = explicit(tau_prev, u_hat_prev, v_prev)
        dt_prev = float(taus[0]) - tau_prev
    cached_dt = None
    E = P1 = P2 = None
    for i in range(taus.size - 1):
        tau = float(taus[i])
        dt = float(taus[i + 1] - taus[i])
        n_cur = explicit(tau, u_hat, v)
        if mild:
            if dt != cached_dt:
                E, P1, P2 = _phis(dt * L_hat)
                cached_dt = dt
            n_cur_hat = tr.fwd(n_cur)
            a_hat = E * u_hat + dt * P1 * n_cur_hat
            n_stage = explicit(tau + dt, a_hat, tr.inv(a_hat))
            u_hat = a_hat + dt * P2 * (tr.fwd(n_stage) - n_cur_hat)
        else:
            if n_prev is None:
                a0, rhs_hat = 1.0, u_hat + dt * tr.fwd(n_cur)
            else:
                rho = dt / dt_prev
                a0 = (1.0 + 2.0 * rho) / (1.0 + rho)
                a2 = rho * rho / (1.0 + rho)
                n_ext = (1.0 + rho) * n_cur - rho * n_prev
                rhs_hat = ((1.0 + rho) * u_hat - a2 * u_hat_prev
                           + dt * tr.fwd(n_ext))
            u_hat_prev, u_hat = u_hat, implicit(tau, a0, dt, rhs_hat)
        v = tr.inv(u_hat)
        if not np.all(np.isfinite(v)):
            raise BlowUpError("state became non-finite", step=i + 1,
                              tau=float(taus[i + 1]))
        n_prev = n_cur
        dt_prev = dt
        if on_level is not None:
            on_level(i + 1, float(taus[i + 1]), v)
        if store_stride and ((i + 1) % store_stride == 0 or i + 1 == taus.size - 1):
            stored.append((float(taus[i + 1]), v.copy()))
    return v, stored


def _feedback_coefficient(problem: CauchyProblem, tau: float, x: np.ndarray,
                          sigma2: float) -> np.ndarray:
    psi = problem.shift.strategy.psi
    rho = problem.shift.rho
    eps = problem.grid.dx
    dpsi = (8.0 * (np.asarray(psi(tau, x + eps)) - np.asarray(psi(tau, x - eps)))
            - (np.asarray(psi(tau, x + 2 * eps)) - np.asarray(psi(tau, x - 2 * eps)))
            ) / (12.0 * eps)
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
    return {"source_analytic": 0, "source_propagated": 0,
            "source_reanchors": 0, "source_switch_tau": None,
            "source_switch_gap": None, "source_window_gap": None,
            "source_pair_fraction": None}


def _compensated_source(problem: CauchyProblem, plan: OperatorPlan,
                        stats: dict) -> Callable[[float], np.ndarray]:
    """source(tau): the compensated operator on the closed form, on the grid.

    Analytic while the kernel is narrower than SOURCE_SWITCH_CELLS cells,
    summed on the closed form's live window once the first level has checked
    it, then propagated spectrally from a verified anchor (identity shift
    only); see the module docstring.  The marchers call it in nondecreasing
    tau (mild_etd2 twice in a row at the next level's tau, hence the kept
    latest value); a tau at or before the anchor is evaluated analytically.
    Counts go into stats.
    """
    g = problem.grid
    # call and put share the source: the compensated operator kills the
    # affine gap between the two closed forms, and the put profile keeps
    # the evaluation free of exponential growth
    bs = BlackScholesClosedForm(problem.strike, problem.rate, problem.sigma,
                                "put")
    propagate = plan.shift is None
    tr = Transforms(g)
    L_bs = (-0.5 * problem.sigma ** 2 * tr.k2
            + tr.ik[0] * (problem.rate - 0.5 * problem.sigma ** 2))
    anchor = None  # (tau_s, rfft of the analytic source at tau_s)
    verified = False
    window = None  # live-window sums: None until checked, then pass/fail
    pairs_per_level = g.n_total * plan.wh.size
    latest = (None, None)  # (tau, source(tau)) of the latest call

    def analytic(tau: float) -> np.ndarray:
        nonlocal window
        fn, dfn = (lambda p: bs.u(tau, p)), (lambda p: bs.du_dx(tau, p))
        live = bs.live_interval(tau) if window else None
        h = apply_f_tilde_fn(plan, fn, dfn, tau, live)
        if window is None:
            h_win = apply_f_tilde_fn(plan, fn, dfn, tau, bs.live_interval(tau))
            gap = float(np.max(np.abs(h_win - h))) \
                / max(float(np.max(np.abs(h))), 1e-300)
            window = gap <= SOURCE_SWITCH_TOL
            stats["source_window_gap"] = gap
        if not np.all(np.isfinite(h)):
            raise SingularityError(
                f"compensated source is non-finite at tau={tau:.3e}; "
                "use a finer graded startup mesh")
        stats["source_analytic"] += 1
        stats["source_pair_fraction"] = plan.stats["source_pairs"] / (
            pairs_per_level * stats["source_analytic"])
        return h

    def evaluate(tau: float) -> np.ndarray:
        nonlocal anchor, verified
        if not propagate or \
                problem.sigma * math.sqrt(tau) < SOURCE_SWITCH_CELLS * g.dx:
            return analytic(tau)
        if anchor is None or tau <= anchor[0]:
            h = analytic(tau)
            if anchor is None:
                anchor = (tau, tr.fwd(h))
            return h
        tau_s, h_hat = anchor
        h_prop = tr.inv(np.exp((tau - tau_s) * L_bs) * h_hat)
        if not verified:
            h = analytic(tau)
            gap = float(np.max(np.abs(h_prop - h))) \
                / max(float(np.max(np.abs(h))), 1e-300)
            if gap > SOURCE_SWITCH_TOL:
                anchor = (tau, tr.fwd(h))
                stats["source_reanchors"] += 1
                return h
            verified = True
            stats["source_switch_tau"] = float(tau_s)
            stats["source_switch_gap"] = gap
        stats["source_propagated"] += 1
        return h_prop

    def source(tau: float) -> np.ndarray:
        nonlocal latest
        if latest[0] != tau:
            latest = (tau, evaluate(tau))
        return latest[1]

    return source


def _prepare_rhs(problem: CauchyProblem, scheme: SchemeConfig, shifted: bool,
                 plan: OperatorPlan | None):
    """Assemble (L_hat, implicit, N_fn, needs_grad, stats) for one solve on
    the problem's plan, after the stability check (_check_stability).

    With constant diffusion the implicit part is the Fourier multiplier
    L_hat: diffusion plus, in pricing form, the constant part of the drift
    (identity-shift drift correction folded in so the explicit remainder is
    bounded).  With feedback diffusion L_hat is None, the implicit solve is
    the cyclic tridiagonal one, and that constant drift joins N_fn.  N_fn
    carries the jump operator's bounded part, the x-dependent drift excess,
    the analytic source (shifted mode), and any user nonlinearity.
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
    mean0 = delta00 = 0.0
    if plan is not None and g.dim == 1:
        mean0, delta00 = plan.mean_jump[0], plan.delta0

    tr = Transforms(g)
    drift = (problem.rate - 0.5 * sigma2 - delta00 - mean0) if pricing else 0.0
    if feedback:
        L_hat = None
        x = g.axis()
        inv_dx2 = 1.0 / g.dx ** 2

        def implicit(tau, a0, dt, rhs_hat):
            c = _feedback_coefficient(problem, tau, x, sigma2)
            off = -dt * c * inv_dx2
            return tr.fwd(_solve_cyclic_tridiag(off, a0 + 2.0 * dt * c * inv_dx2,
                                                off, tr.inv(rhs_hat)))
    else:
        L_hat = -0.5 * sigma2 * tr.k2 + (tr.ik[0] * drift if g.dim == 1 else 0j)

        def implicit(tau, a0, dt, rhs_hat):
            return rhs_hat / (a0 - dt * L_hat)

    operator = None if plan is None else "fft" if plan.uses_fft else "band"
    stats = {"operator": operator, "explicit_evaluations": 0,
             **_source_stats(),
             "stability_margin": _check_stability(problem, scheme, plan)}
    source = None
    if shifted and plan is not None:
        source = _compensated_source(problem, plan, stats)

    coords = g.axis() if g.dim == 1 else g.meshes()
    fft_fast = plan is not None and plan.uses_fft
    quadrature = plan is not None and not fft_fast
    # symbol - mass: the advection-free part, spectral radius <= 2 mass
    bounded = plan.symbol_conv - plan.mass if fft_fast else None
    # explicit first-order term of the pricing drift: the x-dependent excess
    # on the quadrature path, plus the constant drift that L_hat leaves out
    # with feedback diffusion
    advects = pricing and (quadrature or feedback)
    drift_out = drift if feedback else 0.0
    needs_grad = quadrature or feedback or not pricing

    def N_fn(tau: float, v: np.ndarray, grads):
        stats["explicit_evaluations"] += 1
        out = np.zeros_like(v)
        if fft_fast:
            out += tr.apply(bounded, v)
        elif plan is not None:
            out += apply_f(plan, GridField(g, v, tau), grads, tau).values
        if advects:
            coef = drift_out + mean0
            if plan is not None and plan.shift is not None:
                coef = coef - (delta_on_plan_nodes(plan, tau) - delta00)
            out += coef * grads[0]
        if not pricing:
            out += problem.nonlinearity(tau, coords, v,
                                        grads[0] if g.dim == 1 else grads)
        if source is not None:
            out += source(tau)
        return out

    return L_hat, implicit, N_fn, needs_grad, stats


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
    if not plan.uses_fft and plan.dim == 1:
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
         taus: np.ndarray, shifted: bool, store_stride: int) -> SolveResult:
    """One full solve: march, checkpoints, reassembly and cross-check.

    In shifted mode v0 and the marched state are the difference U, and the
    closed form is added back at the horizon.
    """
    g = problem.grid
    plan = _problem_plan(problem)
    L_hat, implicit, N_fn, needs_grad, stats = _prepare_rhs(
        problem, scheme, shifted, plan)
    norm = FractionalNorm(g, scheme.monitor_gamma)
    T = float(taus[-1])
    marks = [T * (j + 1) / scheme.checkpoint_count
             for j in range(scheme.checkpoint_count)]
    mark_idx = np.unique([int(np.argmin(np.abs(taus - m))) for m in marks])
    mark_set = {int(i) for i in mark_idx if i > 0}
    checkpoints = []

    def on_level(i, tau, v):
        if i in mark_set:
            checkpoints.append((tau, norm(GridField(g, v, tau))))

    v_T, stored = _march(g, L_hat, implicit, N_fn, v0, taus, scheme,
                         needs_grad, on_level, store_stride)
    stats.update(plan.stats if plan is not None else _new_stats())
    if shifted:
        T = problem.horizon
        bs = BlackScholesClosedForm(problem.strike, problem.rate, problem.sigma,
                                    problem.option_type)
        v_T = v_T + bs.u(T, g.axis())
    stats["cross_check_gap"] = None
    if scheme.cross_check:
        other = "mild_etd2" if scheme.scheme == "imex_bdf2" else "imex_bdf2"
        # through the public entry point, so whoever wraps it sees the
        # alternate solve as one more solve
        solve = solve_shifted if shifted else solve_direct
        alt = solve(problem, _replace_scheme(scheme, other))
        gap = stats["cross_check_gap"] = _rel_l2(v_T, alt.field.values)
        if gap > scheme.cross_check_tol:
            raise ToleranceNotMetError(
                f"scheme cross-check gap {gap:.3e} exceeds "
                f"{scheme.cross_check_tol:.3e}", error=gap)
    return SolveResult(GridField(g, v_T, T), tuple(checkpoints), taus,
                       trajectory=tuple(stored), stats=stats)


def solve_direct(problem: CauchyProblem, scheme: SchemeConfig,
                 store_stride: int = 0) -> SolveResult:
    """March the problem's initial field to the horizon.

    Smooth initial data; uniform time mesh.  Feedback diffusion runs here
    (imex_bdf2 only).  The kinked-payoff pricing path is solve_shifted.
    """
    if problem.initial is None:
        raise ParameterDomainError("direct solves need an initial field")
    if problem.initial.grid != problem.grid:
        raise ParameterDomainError("initial field lives on a different grid")
    taus = build_time_mesh(problem.horizon, scheme.dt, grade=False,
                           tau0=problem.initial.time_tag)
    return _run(problem, scheme, problem.initial.values, taus, shifted=False,
                store_stride=store_stride)


def solve_shifted(problem: CauchyProblem, scheme: SchemeConfig) -> SolveResult:
    """Price with kinked payoff data by evolving U = u - u_closed_form.

    U starts identically zero; the payoff kink and the exponential growth
    both live in the closed form, which also supplies the analytic source.
    Returns the reassembled u as `field`; no trajectory is stored.
    """
    if problem.dim != 1:
        raise UnsupportedConfigurationError("shifted solves are 1-D only")
    if problem.diffusion_mode == "feedback":
        raise UnsupportedConfigurationError(
            "feedback diffusion runs through solve_direct")
    if problem.nonlinearity is not None:
        raise UnsupportedConfigurationError(
            "shifted solves use the built-in pricing drift")
    taus = build_time_mesh(problem.horizon, scheme.dt, grade=True)
    return _run(problem, scheme, np.zeros(problem.grid.n_total), taus,
                shifted=True, store_stride=0)


def _replace_scheme(scheme: SchemeConfig, name: str) -> SchemeConfig:
    return replace(scheme, scheme=name, cross_check=False)


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    den = float(np.linalg.norm(a))
    return float(np.linalg.norm(a - b)) / (den if den > 0 else 1.0)


def _step(problem: CauchyProblem, scheme: SchemeConfig, state: GridField,
          history: tuple | None = None) -> GridField:
    plan = problem._step_plan
    L_hat, implicit, N_fn, needs_grad, _ = _prepare_rhs(problem, scheme,
                                                        False, plan)
    taus = np.array([state.time_tag, state.time_tag + scheme.dt])
    v, _ = _march(problem.grid, L_hat, implicit, N_fn, state.values, taus,
                  scheme, needs_grad, history=history)
    return state.with_values(v, state.time_tag + scheme.dt)


def step_imex(problem: CauchyProblem, scheme: SchemeConfig, state: GridField,
              history: GridField | None = None) -> GridField:
    """One IMEX step from state.time_tag; supply the previous level to take a
    BDF2 step instead of the Euler startup step."""
    prev = None if history is None else (history.time_tag, history.values)
    return _step(problem, _replace_scheme(scheme, "imex_bdf2"), state, prev)


def step_mild(problem: CauchyProblem, scheme: SchemeConfig,
              state: GridField) -> GridField:
    """One exponential-integrator step from state.time_tag."""
    return _step(problem, _replace_scheme(scheme, "mild_etd2"), state)


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

    Passes when the fitted slope is no steeper than
    -(2 gamma - 1)(1/2 - 1/(2p)) minus a 0.1 slack, for the L^p norm p = 2;
    a measure-free problem is reported as skipped.
    """
    if not 0.5 <= gamma < 1.0:
        raise ParameterDomainError("gamma must satisfy 1/2 <= gamma < 1")
    bound = -(2.0 * gamma - 1.0) * 0.25 - 0.1
    if problem.measure is None:
        return DecayReport(0.0, bound, True, True, (), ())
    plan = _problem_plan(problem)
    bs = BlackScholesClosedForm(problem.strike, problem.rate, problem.sigma,
                                "put")
    taus = np.geomspace(1e-4, 1e-1, 9)
    norms = []
    dx = problem.grid.dx
    for tau in taus:
        h = apply_f_tilde_fn(plan, lambda q: bs.u(float(tau), q),
                             lambda q: bs.du_dx(float(tau), q), float(tau))
        norms.append(float(np.sqrt(np.sum(h ** 2) * dx)))
    slope = float(np.polyfit(np.log(taus), np.log(norms), 1)[0])
    return DecayReport(slope, bound, slope >= bound, False,
                       tuple(taus.tolist()), tuple(norms))


def duhamel_gap(problem: CauchyProblem, scheme: SchemeConfig,
                result: SolveResult) -> float:
    """Residual of the variation-of-constants identity along the trajectory.

    Re-integrates the stored trajectory's explicit terms against the exact
    semigroup by trapezoid and compares with the stored states; needs a
    solve_direct run with store_stride.  Returns the worst relative L2 gap
    over three target times.  Constant diffusion only: feedback diffusion
    has no Fourier-diagonal semigroup.
    """
    if len(result.trajectory) < 3:
        raise ParameterDomainError("run the solve with store_stride to use this")
    if problem.diffusion_mode == "feedback":
        raise UnsupportedConfigurationError(
            "the Duhamel identity needs constant diffusion")
    L_hat, _, N_fn, needs_grad, _ = _prepare_rhs(problem, scheme, False,
                                                 _problem_plan(problem))
    tr = Transforms(problem.grid)
    times = [t for t, _ in result.trajectory]
    vals = [v for _, v in result.trajectory]
    n_hats = []
    for t, v in result.trajectory:
        v_hat = tr.fwd(v)
        n_hats.append(tr.fwd(N_fn(t, v, tr.grad(v_hat) if needs_grad else None)))
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
