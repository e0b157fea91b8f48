import math

import numpy as np
import pytest
from scipy.optimize import brentq

from levypide import shift
from levypide.errors import NoSolutionError, ParameterDomainError
from levypide.grids import make_grid
from levypide.jump_operator import build_plan
from levypide.measures import make_exponential_tail, make_merton, moments
from levypide.pricing import estimate_reach
from levypide.shift import (ShiftModel, TradingStrategy, compute_delta,
                            count_xi_roots,
                            estimate_holder_constant, growth_bound_probe,
                            resolve_H, resolve_xi, resolve_xi_first_order,
                            strategy_from_table,
                            strategy_linear, strategy_sin, strategy_tanh_ramp,
                            strategy_zero, xi_on_grid)

TANH = strategy_tanh_ramp(0.3, center=0.0, width=1.0)


def test_model_validation():
    for rho in (-0.1, math.nan, math.inf):
        with pytest.raises(ParameterDomainError):
            ShiftModel(TANH, rho=rho)
    with pytest.raises(ParameterDomainError):
        strategy_tanh_ramp(0.3, width=0.0)


def test_rho_zero_returns_raw_jump_exactly():
    model = ShiftModel(TANH, rho=0.0)
    z = np.array([-1.5, -0.2, 0.4, 2.0])
    out = resolve_xi(model, 0.3, np.zeros_like(z), z)
    assert np.array_equal(out, z)
    assert resolve_xi(model, 0.0, 0.1, -0.7) == -0.7
    grid = xi_on_grid(None, 0.0, np.linspace(-1, 1, 9), 0.25)
    assert np.array_equal(grid, np.full(9, 0.25))


def test_fixed_point_satisfies_balance():
    # the resolved shift must satisfy e^xi = e^z + rho (psi(x+xi) - psi(x))
    model = ShiftModel(TANH, rho=0.05)
    psi = TANH.psi
    xs = np.linspace(-2.0, 2.0, 11)
    for z in (-1.0, -0.1, 0.3, 1.5):
        xi = xi_on_grid(model, 0.0, xs, z)
        lhs = np.exp(xi)
        rhs = math.exp(z) + model.rho * (psi(0.0, xs + xi) - psi(0.0, xs))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * math.exp(z)


def test_first_order_matches_linearization():
    model = ShiftModel(TANH, rho=0.02)
    x, z = 0.4, -0.6
    psi = TANH.psi
    want = z + 0.02 * math.exp(-z) * float(
        psi(0.0, np.array([x + z]))[0] - psi(0.0, np.array([x]))[0])
    assert abs(resolve_xi_first_order(model, 0.0, x, z) - want) < 1e-14


def test_first_order_gap_shrinks_quadratically():
    # fixed point minus linearization is O(rho^2): halving rho divides the
    # gap by about four
    xs = np.linspace(-1.5, 1.5, 13)
    zs = np.array([-0.8, -0.3, 0.5, 1.0])

    def gap(rho):
        fp = ShiftModel(TANH, rho=rho)
        worst = 0.0
        for z in zs:
            a = xi_on_grid(fp, 0.0, xs, float(z))
            b = resolve_xi_first_order(fp, 0.0, xs, float(z))
            worst = max(worst, float(np.max(np.abs(a - b))))
        return worst

    ratio = gap(0.02) / gap(0.01)
    assert 3.0 < ratio < 5.0


def test_fixed_point_handles_extreme_raw_jumps():
    # z = -2.5 sits near the feasibility edge (e^z barely dominates
    # rho * swing); z = 30 exercises the overflow-guarded branch
    model = ShiftModel(TANH, rho=0.05)
    for z in (-2.5, 30.0):
        xi = resolve_xi(model, 0.0, 0.0, z)
        assert np.isfinite(xi)
        assert abs(xi - z) < 1.0


def test_no_solution_regime_raises():
    # saturated strategy, strong impact, deep negative raw jump: the shifted
    # level e^z + rho dpsi stays below zero for every candidate shift
    model = ShiftModel(strategy_tanh_ramp(1.0, center=0.0, width=1.0), rho=0.5)
    with pytest.raises(NoSolutionError):
        resolve_xi(model, 0.0, 5.0, -3.0)


def test_count_xi_roots_unique_for_weak_impact():
    model = ShiftModel(TANH, rho=0.05)
    assert count_xi_roots(model, 0.0, 0.3, 0.5) == 1


def test_resolve_H_identity_and_rho_zero():
    model0 = ShiftModel(TANH, rho=0.0)
    assert resolve_H(model0, 0.0, 100.0, 0.2, strike=95.0) == 100.0 * (math.exp(0.2) - 1.0)
    # small jumps keep their digits: e^z - 1 loses them to cancellation
    for z in (1e-3, 1e-10):
        assert resolve_H(model0, 0.0, 100.0, z, strike=95.0) == 100.0 * math.expm1(z)
    model = ShiftModel(TANH, rho=0.04)
    S, K, z = 100.0, 95.0, -0.3
    H = resolve_H(model, 0.0, S, z, strike=K)
    psi = TANH.psi

    def phi(s):
        return float(psi(0.0, np.array([math.log(s / K)]))[0])

    residual = H - model.rho * S * (phi(S + H) - phi(S)) - S * (math.exp(z) - 1.0)
    assert abs(residual) < 1e-9 * max(1.0, abs(H))
    with pytest.raises(ParameterDomainError):
        resolve_H(model, 0.0, -1.0, 0.1)


def test_compute_delta_without_impact_matches_moments():
    nu = make_merton(0.5, -0.1, 0.2)
    got = compute_delta(None, nu, 0.0, 0.0)
    want = float(moments(nu).compensated_exp_moment)
    assert abs(got - want) < 1e-12
    # closed form for the same quantity
    closed = 0.5 * (math.exp(-0.1 + 0.5 * 0.2 ** 2) - 1.0 + 0.1)
    assert abs(got - closed) < 1e-10


def test_compute_delta_first_order_in_rho():
    # a decreasing ramp keeps the displaced level positive on the whole
    # negative jump tail, so the adaptive integral stays feasible
    nu = make_merton(0.4, 0.05, 0.25)
    base = compute_delta(None, nu, 0.0, 0.0)
    down = strategy_tanh_ramp(-0.3, center=0.0, width=1.0)

    def excess(rho):
        model = ShiftModel(down, rho=rho)
        return compute_delta(model, nu, 0.0, 0.2) - base

    e1, e2 = excess(0.01), excess(0.02)
    assert e1 != 0.0
    assert abs(e2 / e1 - 2.0) < 0.2


def test_compensated_exp_moment_of_an_infinite_activity_measure():
    # h ~ |z|^(-1.5) near 0, where e^z - 1 - z cancels: written that way the
    # (0, 1] quadrature missed its tolerance.  The plan sums the moment on
    # its own nodes and folds the jumps inside eps_in into
    # sigma2_correction; measured gap 4.0e-9.
    nu = make_exponential_tail(1.0, 1.5, 3.0)
    want = moments(nu).compensated_exp_moment
    plan = build_plan(make_grid(6.0, 256, reach=8.0), nu)
    assert abs(plan.delta0 + 0.5 * plan.sigma2_correction - want) <= 1e-7
    assert compute_delta(None, nu, 0.0, 0.0) == want
    # the shifted integrand meets the same cancellation; its excess over
    # the unshifted moment is first order in rho (measured ratio 1.990)
    down = strategy_tanh_ramp(-0.3)
    e1, e2 = (compute_delta(ShiftModel(down, rho=rho), nu, 0.0, 0.0) - want
              for rho in (0.01, 0.02))
    assert e1 != 0.0
    assert abs(e2 / e1 - 2.0) < 0.05


def test_shift_fixed_point_evaluates_psi_once_per_iterate():
    # psi runs at x, at the start w = 0, and once per iterate: the residual
    # check of an iterate reuses the t(w) the next iterate starts from.
    # This case converges in 8 iterates (18 calls with psi evaluated twice
    # per iterate).
    calls = []

    def psi(tau, x):
        calls.append(1)
        return TANH.psi(tau, x)

    counted = ShiftModel(TradingStrategy(psi, 1.0, 0.3, time_dependent=False),
                         rho=0.05)
    xs = np.linspace(-3.0, 3.0, 61)
    stats = {}
    xi = xi_on_grid(counted, 0.0, xs, -1.0, stats)
    assert len(calls) == 10
    assert stats.get("shift_fallback_points", 0) == 0
    assert np.array_equal(xi, xi_on_grid(ShiftModel(TANH, rho=0.05), 0.0, xs, -1.0))
    # a stalling case: each point whose residual stops falling goes to the
    # bracketed solve on its own, while the rest keep iterating, and 2 of
    # them converge after the first point has stalled
    stats = {}
    xi_on_grid(ShiftModel(strategy_sin(0.3), rho=0.3), 0.0, xs, -2.0, stats)
    assert stats["shift_fallback_points"] == 29


def test_holder_constant_estimates():
    cloud = np.linspace(-3.0, 3.0, 401)
    lin = strategy_linear(-0.7)
    assert abs(estimate_holder_constant(lin, cloud) - 0.7) < 1e-12
    got = estimate_holder_constant(TANH, cloud)
    assert got <= TANH.holder_constant + 1e-12
    assert got > 0.9 * TANH.holder_constant


def test_strategy_builders_shapes():
    x = np.linspace(-2, 2, 7)
    assert np.array_equal(strategy_zero().psi(0.0, x), np.zeros(7))
    s = strategy_sin(0.5, frequency=2.0)
    assert np.max(np.abs(s.psi(1.0, x) - 0.5 * np.sin(2.0 * x))) < 1e-15
    tab = strategy_from_table([-1.0, 0.0, 2.0], [0.0, 1.0, -1.0])
    assert abs(float(tab.psi(0.0, np.array([0.5]))[0]) - 0.5) < 1e-15
    assert abs(tab.holder_constant - 1.0) < 1e-15
    with pytest.raises(ParameterDomainError):
        strategy_from_table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def test_growth_bound_probe_passes_for_holder_strategy():
    model = ShiftModel(TANH, rho=0.05)
    zs = np.concatenate([-np.geomspace(0.05, 2.0, 12), np.geomspace(0.05, 2.0, 12)])
    rep = growth_bound_probe(model, zs, np.linspace(-2.0, 2.0, 21))
    assert rep.passed
    assert np.isfinite(rep.max_ratio)
    with pytest.raises(ParameterDomainError):
        growth_bound_probe(model, np.array([0.0, 1.0]), np.array([0.0]))


def _reference_root_w(model, tau, x, z):
    """One point of the bracketed fallback, the scalar way: scan 17 points
    on [-width, width] for width = 0.25 doubling up to 800, take the
    bracket nearest w = 0 (lower one on a tie) and polish it with scipy's
    brentq.  Returns the root and the number of brackets in the scan."""
    psi = model.strategy.psi

    def g(w):
        if w > 700.0:
            return math.inf
        dpsi = float(psi(tau, np.array([x + z + w]))[0]
                     - psi(tau, np.array([x]))[0])
        return math.expm1(w) - model.rho * math.exp(min(-z, 700.0)) * dpsi

    width = 0.25
    while width <= 800.0:
        pts = np.linspace(-width, width, 17)
        sgn = np.sign([g(float(p)) for p in pts])
        hit = np.nonzero(sgn[:-1] * sgn[1:] <= 0)[0]
        if hit.size:
            mid = np.abs(pts[hit] + 0.5 * (pts[1] - pts[0]))
            j = int(hit[np.argsort(mid, kind="stable")[0]])
            return brentq(g, float(pts[j]), float(pts[j + 1]), xtol=1e-15,
                          rtol=8.9e-16, maxiter=200), hit.size
        width *= 2.0
    raise NoSolutionError("no bracket")


# (model, raw jump z) pairs for the bracketed solve, called directly
BRACKET_CASES = {
    "tanh_ramp": (ShiftModel(TANH, rho=0.05), -2.0),
    "sin": (ShiftModel(strategy_sin(0.3), rho=0.3), -2.0),
    "linear": (ShiftModel(strategy_linear(-0.5), rho=0.5), -2.0),
    "table": (ShiftModel(strategy_from_table([-1.0, 0.0, 2.0],
                                             [0.0, 1.0, -1.0]), rho=0.1), 0.3),
    # residual oscillates: several brackets per scan, the nearest to 0 wins
    "oscillating": (ShiftModel(strategy_sin(1.0, 20.0), rho=0.5), -1.0),
}


@pytest.mark.parametrize("case", sorted(BRACKET_CASES))
def test_vectorized_fallback_matches_scalar_brentq(case):
    model, z = BRACKET_CASES[case]
    xs = np.linspace(-3.0, 3.0, 61)
    got = shift._bracketed_roots_w(model, 0.0, xs, np.full_like(xs, z))
    brackets = []
    for x, w in zip(xs, got):
        want, hits = _reference_root_w(model, 0.0, float(x), z)
        brackets.append(hits)
        assert abs(w - want) <= 4e-15 * (1.0 + abs(want)), (x, w, want)
    if case == "oscillating":
        assert max(brackets) >= 3


@pytest.mark.parametrize("case, fallbacks", [
    # the fixed point contracts: nothing reaches the fallback, although
    # converged entries sit at residual 0 while the rest still iterate
    ("tanh_ramp", (0, 0)),
    # rho e^(-z) |psi'| > 1 on part of the grid: the iteration stalls there
    ("sin", (1, 60)),
    ("linear", (61, 61)),
    ("oscillating", (61, 61)),
])
def test_fixed_point_hands_only_stalled_points_to_fallback(case, fallbacks):
    model, z = BRACKET_CASES[case]
    xs = np.linspace(-3.0, 3.0, 61)
    stats = {}
    xi = xi_on_grid(model, 0.0, xs, z, stats)
    lo, hi = fallbacks
    assert lo <= stats.get("shift_fallback_points", 0) <= hi
    assert np.all(np.isfinite(xi))


@pytest.mark.parametrize("case", ["tanh_ramp", "sin", "oscillating"])
def test_node_block_matches_per_node_calls_bit_for_bit(case):
    # every entry stops, and every fallback bracket freezes, on its own, so
    # a row of a node block is the call for its node alone; the sin case
    # mixes converged and stalled entries in one call, the oscillating one
    # sends every entry to the bracketed solve
    model, z = BRACKET_CASES[case]
    xs = np.linspace(-3.0, 3.0, 61)
    zs = z + np.array([0.0, 0.05, 0.1, 0.2, 0.35])
    block_stats, node_stats = {}, {}
    block = xi_on_grid(model, 0.0, xs, zs, block_stats)
    rows = np.stack([xi_on_grid(model, 0.0, xs, float(zj), node_stats)
                     for zj in zs])
    assert block.shape == (zs.size, xs.size)
    assert np.array_equal(block, rows)
    # the counters count entries, so they do not depend on the block either
    assert block_stats == node_stats
    if case != "tanh_ramp":
        assert block_stats["shift_fallback_points"] > 0


@pytest.mark.parametrize("case", sorted(BRACKET_CASES))
def test_resolve_H_solves_the_amplitude_balance(case):
    # H = S (e^xi - 1) from the shift solve, so every point with a shift
    # has an amplitude, including those whose plain fixed point on H
    # stalled or stepped below S + H = 0
    model, z = BRACKET_CASES[case]
    K = 100.0
    for x in np.linspace(-3.0, 3.0, 61):
        S = K * math.exp(x)
        H = resolve_H(model, 0.0, S, z, strike=K)
        phi_S, phi_SH = model.strategy.psi(
            0.0, np.log(np.array([S, S + H]) / K))
        residual = H - model.rho * S * (phi_SH - phi_S) - S * math.expm1(z)
        assert abs(residual) < 1e-9 * max(1.0, abs(H)), (x, H, residual)


def _nan_beyond_one(tau, x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 1.0, np.nan, 0.3 * np.tanh(x))


NAN_MODEL = ShiftModel(TradingStrategy(_nan_beyond_one, 1.0, 0.3,
                                       time_dependent=False), rho=0.05)
XS = np.linspace(-3.0, 3.0, 61)


@pytest.mark.parametrize("evaluate", [
    lambda: xi_on_grid(NAN_MODEL, 0.0, XS, 0.5),
    lambda: resolve_xi_first_order(NAN_MODEL, 0.0, XS, 0.5),
    lambda: resolve_H(NAN_MODEL, 0.0, 100.0 * math.exp(1.5), 0.1, strike=100.0),
    lambda: count_xi_roots(NAN_MODEL, 0.0, 0.5, 0.3),
    lambda: growth_bound_probe(NAN_MODEL, np.array([-0.5, 0.5]), XS),
    lambda: estimate_reach(make_merton(0.5, -0.1, 0.2), NAN_MODEL, 6.0),
    lambda: estimate_holder_constant(NAN_MODEL.strategy, XS),
], ids=["xi_on_grid", "resolve_xi_first_order", "resolve_H", "count_xi_roots",
        "growth_bound_probe", "estimate_reach", "estimate_holder_constant"])
def test_every_strategy_evaluation_rejects_a_non_finite_psi(evaluate):
    # every layer evaluates psi through TradingStrategy.values, so none of
    # them returns nan or a misleading convergence error
    with pytest.raises(ParameterDomainError, match="not finite"):
        evaluate()


def test_non_finite_strategy_is_a_domain_error():
    # psi is NaN beyond x = 1: the resolver names the first such point,
    # among the grid points or among the displaced ones x + xi
    model = NAN_MODEL
    xs = np.linspace(-3.0, 3.0, 61)
    with pytest.raises(ParameterDomainError, match=r"tau=0\.5, x=1\.1\b"):
        xi_on_grid(model, 0.5, xs, np.array([-0.5, 0.5]))
    with pytest.raises(ParameterDomainError, match="not finite"):
        xi_on_grid(model, 0.0, np.array([0.2, 0.8]), 0.5)
    nan_free = xi_on_grid(model, 0.0, np.array([0.2, 0.8]), -0.5)
    assert np.all(np.isfinite(nan_free))


def test_vectorized_fallback_raises_without_root():
    # the first point has a root, the second none at any scan width
    model = ShiftModel(strategy_tanh_ramp(1.0, center=0.0, width=1.0), rho=0.5)
    _reference_root_w(model, 0.0, 0.0, 0.2)
    with pytest.raises(NoSolutionError):
        shift._bracketed_roots_w(model, 0.0, np.array([0.0, 5.0]),
                                 np.array([0.2, -3.0]))
