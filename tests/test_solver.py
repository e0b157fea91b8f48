import dataclasses
import itertools
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from levypide import jump_operator, solver
from levypide.blackscholes import BlackScholesClosedForm
from levypide.config import load_config
from levypide.errors import (BlowUpError, OutOfDomainError,
                             ParameterDomainError, StabilityError,
                             ToleranceNotMetError,
                             UnsupportedConfigurationError)
from levypide.grids import Grid, GridField, Transforms, make_grid
from levypide.jump_operator import apply_f_tilde_fn, build_plan
from levypide.measures import (levy_pair, make_exponential_tail, make_kou,
                               make_merton)
from levypide.pricing import (DEFAULT_STEPS, MarketSpec, estimate_reach,
                              price_european, transform_to_pide)
from levypide.shift import (ShiftModel, strategy_linear, strategy_sin,
                            strategy_tanh_ramp)
from levypide.solver import (CauchyProblem, SchemeConfig, build_time_mesh,
                             duhamel_gap, heat_semigroup,
                             singular_source_decay_probe, solve_direct,
                             solve_shifted)

MERTON = make_merton(0.5, -0.1, 0.2)
# the same law without its family tag: an identity-shift solve sums its
# source over the plan's nodes instead of taking the closed form
NODE_MERTON = dataclasses.replace(MERTON, family=None)


def _merton_grid(n=512, half_width=4.0):
    return make_grid(half_width, n, reach=2.3)


def _gaussian(grid, s0=0.3):
    x = grid.axis()
    return GridField(grid, np.exp(-x ** 2 / (2.0 * s0 ** 2)))


def test_heat_semigroup_spreads_gaussian_variance():
    g = make_grid(8.0, 1024)
    s0, sigma, dt = 0.3, 0.4, 0.5
    out = heat_semigroup(_gaussian(g, s0), sigma, dt)
    s1 = math.sqrt(s0 ** 2 + sigma ** 2 * dt)
    x = g.axis()
    want = (s0 / s1) * np.exp(-x ** 2 / (2.0 * s1 ** 2))
    assert np.max(np.abs(out.values - want)) < 1e-12
    assert out.time_tag == 0.5


def test_heat_semigroup_at_a_zero_step_returns_its_input():
    # pins the dt == 0 shortcut (the same object, no transform) and the
    # refusal of a negative step
    u = _gaussian(make_grid(4.0, 64))
    assert heat_semigroup(u, 0.4, 0.0) is u
    with pytest.raises(ParameterDomainError, match="dt must be nonnegative"):
        heat_semigroup(u, 0.4, -0.1)


def test_build_time_mesh_uniform_and_graded():
    taus = build_time_mesh(1.0, 0.03)
    assert taus[0] == 0.0 and taus[-1] == 1.0
    steps = np.diff(taus)
    assert np.all(steps > 0)
    assert np.max(steps) <= 0.03 + 1e-15
    graded = build_time_mesh(2.0, 0.01, grade=True)
    assert graded[0] == 0.0 and abs(graded[-1] - 2.0) < 1e-14
    gsteps = np.diff(graded)
    assert np.all(gsteps > 0)
    # variable-step BDF2 needs consecutive ratios below 1 + sqrt(2)
    ratios = gsteps[1:] / gsteps[:-1]
    assert np.max(ratios) < 1.0 + math.sqrt(2.0) - 1e-9
    with pytest.raises(ParameterDomainError):
        build_time_mesh(1.0, -0.1)


def test_problem_validation():
    g = _merton_grid(128)
    with pytest.raises(ParameterDomainError):
        CauchyProblem(g, sigma=0.0, horizon=1.0)
    with pytest.raises(ParameterDomainError):
        CauchyProblem(g, sigma=0.2, horizon=1.0, diffusion_mode="feedback")
    with pytest.raises(ParameterDomainError):
        SchemeConfig(scheme="crank_nicolson")
    with pytest.raises(ParameterDomainError, match="rate must be finite"):
        CauchyProblem(g, sigma=0.2, horizon=1.0, rate=math.nan)
    with pytest.raises(ParameterDomainError, match="option_type"):
        CauchyProblem(g, sigma=0.2, horizon=1.0, option_type="straddle")
    with pytest.raises(ParameterDomainError, match="diffusion_mode"):
        CauchyProblem(g, sigma=0.2, horizon=1.0, diffusion_mode="local")


def test_problem_closed_form_is_built_once_and_read_only():
    g = _merton_grid(128)
    with pytest.raises(ParameterDomainError,
                       match="strike must be positive and finite"):
        CauchyProblem(g, sigma=0.2, horizon=1.0, strike=math.inf)
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.03,
                            strike=95.0, option_type="put")
    assert problem.closed_form == BlackScholesClosedForm(95.0, 0.03, 0.2,
                                                         "put")
    assert problem.closed_form is problem.closed_form
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.closed_form = BlackScholesClosedForm(1.0, 0.0, 0.2)


def test_pad_short_of_the_resolved_shifts_fails_before_marching(monkeypatch):
    # the pad covers the jump radius, so the plan builds, but the increasing
    # ramp pushes the negative jumps past it; the stability check builds the
    # band, which rejects the resolved shifts before any level is marched
    dx = 8.0 / 256
    g = Grid(1, 4.0, 256, pad=math.ceil(MERTON.jump_radius / dx) + 2)
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                            measure=MERTON, strike=100.0,
                            shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.05))

    def no_march(*args, **kwargs):
        raise AssertionError("marched on a pad too small for the shifts")

    monkeypatch.setattr(solver, "_march", no_march)
    with pytest.raises(OutOfDomainError, match="resolved shift reach"):
        solve_shifted(problem, SchemeConfig(dt=0.02))


def test_direct_solves_need_an_initial_field_on_their_grid():
    # pins solve_direct's two input guards: no initial field at all, and an
    # initial field sampled on a different grid
    g = make_grid(4.0, 64)
    scheme = SchemeConfig(dt=0.1)
    with pytest.raises(ParameterDomainError, match="need an initial field"):
        solve_direct(CauchyProblem(g, sigma=0.2, horizon=0.5), scheme)
    elsewhere = _gaussian(make_grid(4.0, 128))
    with pytest.raises(ParameterDomainError, match="different grid"):
        solve_direct(CauchyProblem(g, sigma=0.2, horizon=0.5,
                                   initial=elsewhere), scheme)


def test_shifted_solves_refuse_a_nonlinearity():
    # pins solve_shifted's guard: its source and compensator assume the
    # built-in pricing drift, which a nonlinearity would replace
    problem = CauchyProblem(make_grid(4.0, 64), sigma=0.2, horizon=0.5,
                            nonlinearity=lambda tau, x, u, du: -u)
    with pytest.raises(UnsupportedConfigurationError,
                       match="built-in pricing drift"):
        solve_shifted(problem, SchemeConfig(dt=0.1))


def test_shifted_solves_are_one_dimensional():
    problem = CauchyProblem(make_grid(4.0, 64, dim=2), sigma=0.2, horizon=0.5)
    with pytest.raises(UnsupportedConfigurationError, match="1-D only"):
        solve_shifted(problem, SchemeConfig(dt=0.1))


def test_feedback_diffusion_is_one_dimensional():
    # pins CauchyProblem's guard: the feedback coefficient uses d psi / dx
    g = make_grid(4.0, 64, dim=2)
    with pytest.raises(UnsupportedConfigurationError, match="1-D only"):
        CauchyProblem(g, sigma=0.2, horizon=0.5,
                      shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.05),
                      diffusion_mode="feedback")


def test_measure_free_shifted_solve_is_exactly_zero():
    # without jumps the closed form solves the equation, so the evolved
    # difference never leaves zero
    g = make_grid(4.0, 256)
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05)
    res = solve_shifted(problem, SchemeConfig(dt=0.05))
    bs = BlackScholesClosedForm(1.0, 0.05, 0.2, "call")
    assert np.array_equal(res.field.values, bs.u(1.0, g.axis()))


def test_shifted_solve_converges_to_series_price():
    g = _merton_grid(512)
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                            measure=MERTON)
    res = solve_shifted(problem, SchemeConfig(dt=4e-2))
    # undiscounted series value of the terminal field at x = 0
    from levypide.pricing import MarketSpec, merton_series_oracle
    mkt = MarketSpec(1.0, 1.0, 1.0, 0.05, 0.2, "call")
    want = merton_series_oracle(mkt, (0.5, -0.1, 0.2)) * math.exp(0.05)
    i0 = int(np.argmin(np.abs(g.axis())))
    assert abs(res.field.values[i0] - want) / want < 2e-4


def test_schemes_agree_to_second_order():
    g = _merton_grid(256)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                            measure=MERTON)
    a = solve_shifted(problem, SchemeConfig(scheme="imex_bdf2", dt=0.01))
    b = solve_shifted(problem, SchemeConfig(scheme="mild_etd2", dt=0.01))
    den = float(np.linalg.norm(a.field.values))
    assert float(np.linalg.norm(a.field.values - b.field.values)) / den < 1e-5


def test_cross_check_attaches_gap():
    g = _merton_grid(256)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                            measure=MERTON)
    res = solve_shifted(problem, SchemeConfig(dt=0.01, cross_check=True))
    assert res.stats["cross_check_gap"] is not None
    assert 0.0 <= res.stats["cross_check_gap"] < 1e-4
    with pytest.raises(ToleranceNotMetError):
        solve_shifted(problem, SchemeConfig(dt=0.01, cross_check=True,
                                            cross_check_tol=1e-18))


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"


def _demo_problem(name, n_core):
    """The demo config's problem on an n_core grid, and its scheme."""
    cfg = load_config(str(DEMO_CONFIGS / name))
    g = make_grid(cfg.half_width, n_core,
                  reach=estimate_reach(cfg.measure, cfg.shift, cfg.half_width))
    return transform_to_pide(cfg.market, g, cfg.measure, cfg.shift), cfg.scheme


def _traced_solve(problem, scheme):
    """solve_shifted, with every _run result (innermost first), the taus of
    the analytic source evaluations (node sums and closed forms, the closed
    form's horizon check included) and the plan and band builds.  The
    solver's and the plan's timers read clocks that tick once per reading,
    so equal work gives equal stats."""
    trace = {"runs": [], "source_taus": [], "plans": 0, "bands": 0}
    run, fn = solver._run, solver.apply_f_tilde_fn
    closed = BlackScholesClosedForm.jump_source
    plan, band = solver.build_plan, jump_operator._build_band

    def traced_run(*args, **kwargs):
        trace["runs"].append(run(*args, **kwargs))
        return trace["runs"][-1]

    def traced_fn(plan_, fn_, dfn, tau, live=None):
        trace["source_taus"].append(tau)
        return fn(plan_, fn_, dfn, tau, live)

    def traced_closed(bs, tau, x, family):
        trace["source_taus"].append(tau)
        return closed(bs, tau, x, family)

    def count(key, real):
        return lambda *a, **k: trace.__setitem__(key, trace[key] + 1) \
            or real(*a, **k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_run", traced_run)
        mp.setattr(solver, "apply_f_tilde_fn", traced_fn)
        mp.setattr(BlackScholesClosedForm, "jump_source", traced_closed)
        mp.setattr(solver, "build_plan", count("plans", plan))
        mp.setattr(jump_operator, "_build_band", count("bands", band))
        for module in (solver, jump_operator):
            mp.setattr(module, "perf_counter", itertools.count().__next__)
        trace["result"] = solve_shifted(problem, scheme)
    return trace


@pytest.mark.parametrize("demo,n_core", [("kou_put.cfg", 256),
                                         ("impact_call.cfg", 256)])
def test_cross_check_reuses_the_plan_and_the_analytic_source(demo, n_core):
    problem, scheme = _demo_problem(demo, n_core)
    plain = _traced_solve(problem, dataclasses.replace(scheme,
                                                       cross_check=False))
    checked = _traced_solve(problem, dataclasses.replace(scheme,
                                                         cross_check=True))
    alone = _traced_solve(problem, dataclasses.replace(
        scheme, scheme="mild_etd2", cross_check=False))
    alt, main = checked["runs"]
    assert main is checked["result"]
    # the other scheme runs on the main solve's plan (and band) and reads
    # back its analytic source levels; mild_etd2's last stage at the
    # horizon is propagated with the identity shift and, with the static
    # feedback shift, an interpolation node the main solve evaluated
    assert checked["plans"] == plain["plans"] == 1
    assert checked["bands"] == plain["bands"]
    done = len(plain["source_taus"])
    assert checked["source_taus"][:done] == plain["source_taus"]
    assert checked["source_taus"][done:] == []
    assert alt.stats["source_analytic"] == 0
    # and gives the bits of the other scheme's own solve
    assert np.array_equal(alt.field.values, alone["result"].field.values)
    assert np.array_equal(main.field.values, plain["result"].field.values)
    assert main.stats["cross_check_gap"] == solver._rel_l2(
        plain["result"].field.values, alone["result"].field.values)
    # the record is the main solve's alone: one tick per analytic level
    assert main.stats == {**plain["result"].stats,
                          "cross_check_gap": main.stats["cross_check_gap"]}
    assert main.stats["source_analytic_s"] == main.stats["source_analytic"]


@pytest.mark.parametrize("demo", ["kou_put.cfg", "impact_call.cfg"])
def test_cross_check_marches_on_the_main_solves_source(monkeypatch, demo):
    problem, scheme = _demo_problem(demo, 128)
    built = []
    real = solver._compensated_source
    monkeypatch.setattr(solver, "_compensated_source",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    res = solve_shifted(problem, dataclasses.replace(scheme, cross_check=True))
    assert res.stats["cross_check_gap"] is not None
    assert len(built) == 1


def test_readme_lists_exactly_the_recorded_stats():
    # every snake_case name in backticks in the README's stats list is a
    # key, apart from the schemes and the other names the entries cite
    text = README.read_text()
    start = text.index("\n- ", text.index("`result.result.stats` is a plain"))
    listed = text[start:text.index("\n\n", start)]
    cited = {"imex_bdf2", "mild_etd2", "cross_check_tol", "perf_counter",
             "n_total"}
    names = set(re.findall(r"`([a-z][a-z0-9_]*)`", listed)) - cited
    problem = CauchyProblem(_merton_grid(128), sigma=0.2, horizon=0.5,
                            rate=0.03, measure=MERTON)
    stats = solve_shifted(problem, SchemeConfig(dt=0.05,
                                                cross_check=True)).stats
    assert names == set(stats)


def test_source_time_is_part_of_the_solve():
    g = _merton_grid(256)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                            measure=MERTON)
    t0 = time.perf_counter()
    stats = solve_shifted(problem, SchemeConfig(dt=0.01)).stats
    wall = time.perf_counter() - t0
    assert 0.0 < stats["source_analytic_s"] < wall
    free = dataclasses.replace(problem, measure=None)
    assert solve_shifted(free, SchemeConfig(dt=0.01)).stats[
        "source_analytic_s"] == 0.0


@pytest.mark.parametrize("shift", [
    None, ShiftModel(strategy_tanh_ramp(0.3), rho=0.05),
], ids=["merton", "impacted"])
def test_plan_build_time_is_part_of_the_solve(shift):
    market = MarketSpec(100.0, 100.0, 0.5, 0.03, 0.2, "call")
    t0 = time.perf_counter()
    res = price_european(market, MERTON, shift, n_core=128,
                         scheme=SchemeConfig(dt=0.05))
    wall = time.perf_counter() - t0
    assert 0.0 < res.result.stats["plan_build_s"] < wall
    free = price_european(market, None, n_core=128,
                          scheme=SchemeConfig(dt=0.05))
    assert free.result.stats["plan_build_s"] == 0.0


def test_duhamel_identity_on_trajectory():
    g = _merton_grid(256)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                            measure=MERTON, initial=_gaussian(g))
    sch = SchemeConfig(dt=0.005)
    gap = duhamel_gap(problem, sch)
    assert gap < 1e-4


def test_rho_zero_shift_is_bit_identical_to_no_shift():
    g = make_grid(4.0, 256, reach=3.2)
    base = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03, measure=MERTON)
    with_model = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                               measure=MERTON,
                               shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.0))
    sch = SchemeConfig(dt=0.01)
    a = solve_shifted(base, sch)
    b = solve_shifted(with_model, sch)
    assert np.array_equal(a.field.values, b.field.values)


def test_active_shift_moves_price_continuously():
    g = make_grid(4.0, 256, reach=3.2)
    sch = SchemeConfig(dt=0.02)
    strat = strategy_tanh_ramp(0.3)

    def price(rho):
        shift = ShiftModel(strat, rho=rho) if rho else None
        problem = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                                measure=MERTON, shift=shift)
        res = solve_shifted(problem, sch)
        return float(res.field.values[int(np.argmin(np.abs(g.axis())))])

    p0, p1, p2 = price(0.0), price(0.02), price(0.04)
    assert p1 != p0
    # impact enters at first order: doubling rho roughly doubles the move
    assert abs((p2 - p0) / (p1 - p0) - 2.0) < 0.25


def test_stability_guard_rejects_huge_steps():
    g = _merton_grid(256)
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.03,
                            measure=MERTON, initial=_gaussian(g),
                            shift=ShiftModel(strategy_tanh_ramp(0.1), rho=0.01))
    with pytest.raises(StabilityError):
        solve_direct(problem, SchemeConfig(dt=0.5))


def test_blow_up_is_reported():
    g = make_grid(4.0, 128)

    def quadratic(tau, x, u, du):
        return u * u

    problem = CauchyProblem(g, sigma=0.2, horizon=2.0,
                            nonlinearity=quadratic,
                            initial=GridField(g, np.full(g.n_total, 30.0)))
    with pytest.raises(BlowUpError):
        with np.errstate(over="ignore", invalid="ignore"):
            solve_direct(problem, SchemeConfig(dt=0.05))


def test_custom_nonlinearity_matches_logistic_ode():
    # spatially constant data turns the PIDE into u' = u(1 - u)
    g = make_grid(4.0, 128)

    def logistic(tau, x, u, du):
        return u * (1.0 - u)

    u0 = 0.2
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, nonlinearity=logistic,
                            initial=GridField(g, np.full(g.n_total, u0)))
    res = solve_direct(problem, SchemeConfig(dt=0.002))
    want = u0 * math.exp(1.0) / (1.0 - u0 + u0 * math.exp(1.0))
    assert np.max(np.abs(res.field.values - want)) < 1e-5


def test_checkpoints_are_recorded():
    g = _merton_grid(256)
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.03,
                            measure=MERTON)
    res = solve_shifted(problem, SchemeConfig(dt=0.01, monitor_gamma=0.5))
    assert len(res.checkpoints) == solver.CHECKPOINTS == 10
    taus = [t for t, _ in res.checkpoints]
    assert abs(taus[-1] - 1.0) < 1e-12
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert all(np.isfinite(v) for _, v in res.checkpoints)


def test_decay_probe_skips_without_measure_and_passes_with():
    g = make_grid(3.0, 2048)
    plain = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05)
    rep0 = singular_source_decay_probe(plain, 0.75)
    assert rep0.skipped and rep0.passed
    gm = make_grid(3.0, 2048, reach=2.3)
    problem = CauchyProblem(gm, sigma=0.2, horizon=1.0, rate=0.05,
                            measure=MERTON)
    rep = singular_source_decay_probe(problem, 0.75)
    assert not rep.skipped
    assert rep.passed
    assert rep.slope >= rep.bound
    with pytest.raises(ParameterDomainError):
        singular_source_decay_probe(problem, 0.3)


@pytest.mark.parametrize("measure, shift", [
    (MERTON, None),
    (make_kou(0.4, 0.6, 8.0, 4.0), None),
    (make_exponential_tail(1.0, 0.5, 3.0), None),
    (MERTON, ShiftModel(strategy_tanh_ramp(0.3), rho=0.05)),
], ids=["merton", "kou", "tail_alpha_0.5", "tanh_ramp_rho_0.05"])
def test_decay_probe_sums_on_the_live_window(monkeypatch, measure, shift):
    g = make_grid(3.0, 256, reach=estimate_reach(measure, shift, 3.0))
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                            measure=measure, shift=shift, strike=100.0)
    seen = []

    def windowed_and_full(plan, fn, dfn, tau, live=None):
        h = apply_f_tilde_fn(plan, fn, dfn, tau, live)
        seen.append((live, h, apply_f_tilde_fn(plan, fn, dfn, tau)))
        return h

    monkeypatch.setattr(solver, "apply_f_tilde_fn", windowed_and_full)
    singular_source_decay_probe(problem, 0.75)
    assert len(seen) == 9
    for live, h, full in seen:
        assert live is not None
        gap = float(np.max(np.abs(h - full))) / float(np.max(np.abs(full)))
        assert gap <= 1e-12


def test_feedback_diffusion_runs_and_guards_margin():
    g = make_grid(4.0, 512, reach=3.2)
    payoff = GridField(g, np.maximum(np.exp(g.axis()) - 1.0, 0.0))
    ok = CauchyProblem(g, sigma=0.25, horizon=0.25, rate=0.03, measure=MERTON,
                       shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.05),
                       initial=payoff, diffusion_mode="feedback")
    res = solve_direct(ok, SchemeConfig(dt=0.005))
    assert np.all(np.isfinite(res.field.values))
    assert len(res.checkpoints) > 0
    # rho grad(psi) beyond the margin is refused upfront; the small swing
    # keeps the jump-shift balance itself solvable
    steep = ShiftModel(strategy_tanh_ramp(0.1, width=0.01), rho=0.2)
    bad = CauchyProblem(g, sigma=0.25, horizon=0.25, rate=0.03, measure=MERTON,
                        shift=steep, initial=payoff,
                        diffusion_mode="feedback")
    with pytest.raises(ParameterDomainError):
        solve_direct(bad, SchemeConfig(dt=0.005))
    with pytest.raises(UnsupportedConfigurationError):
        solve_shifted(ok, SchemeConfig(dt=0.005))


def _feedback_problem(n_core=128, horizon=0.1):
    g = make_grid(4.0, n_core, reach=3.2)
    payoff = GridField(g, np.maximum(np.exp(g.axis()) - 1.0, 0.0))
    return CauchyProblem(g, sigma=0.25, horizon=horizon, rate=0.03,
                         measure=MERTON,
                         shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.05),
                         initial=payoff, diffusion_mode="feedback")


def test_feedback_step_past_the_advection_bound_is_refused():
    # the whole feedback drift is explicit: dx / (|r| + sigma^2 / 2) is
    # 0.0078 / 0.06125 = 0.128 at n_core 1024, below the step of 0.2
    problem = _feedback_problem(n_core=1024, horizon=1.0)
    with pytest.raises(StabilityError, match="explicit advection bound"):
        solve_direct(problem, SchemeConfig(dt=0.2))


def test_feedback_checkpoints_and_unsupported_combinations():
    problem = _feedback_problem()
    res = solve_direct(problem, SchemeConfig(dt=0.01))
    taus = [t for t, _ in res.checkpoints]
    assert len(taus) == 10
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert abs(taus[-1] - 0.1) < 1e-12
    # per level the gradient, the forward transform of the grid terms and
    # the implicit solve's pair; the solve hands back its grid values, and
    # the gamma = 0 checkpoint norms take no transform
    assert res.stats["fft_transforms"] == 4 * (res.taus.size - 1) + 1
    # ETD2 has no feedback variant, so neither has the scheme cross-check
    with pytest.raises(UnsupportedConfigurationError):
        solve_direct(problem, SchemeConfig(dt=0.01, cross_check=True))
    with pytest.raises(UnsupportedConfigurationError):
        solve_direct(problem, SchemeConfig(scheme="mild_etd2", dt=0.01))
    with pytest.raises(UnsupportedConfigurationError):
        duhamel_gap(problem, SchemeConfig(dt=0.01))


@pytest.mark.parametrize("time_dependent", [False, True])
def test_feedback_coefficient_is_recomputed_only_for_a_time_dependent_strategy(
        monkeypatch, time_dependent):
    # a static strategy's coefficient (and its margin check) is computed at
    # the first level only; flagged time-dependent, the same psi is
    # evaluated again at every level, and both give the same bits
    problem = _feedback_problem()
    shift = problem.shift
    flagged = dataclasses.replace(problem, shift=dataclasses.replace(
        shift, strategy=dataclasses.replace(shift.strategy,
                                            time_dependent=time_dependent)))
    seen = []
    real = solver._feedback_coefficient
    monkeypatch.setattr(solver, "_feedback_coefficient",
                        lambda p, tau, *a: seen.append(tau)
                        or real(p, tau, *a))
    scheme = SchemeConfig(dt=0.01)
    res = solve_direct(flagged, scheme)
    assert seen == (res.taus[:-1].tolist() if time_dependent
                    else [res.taus[0]])
    monkeypatch.setattr(solver, "_feedback_coefficient", real)
    assert np.array_equal(res.field.values,
                          solve_direct(problem, scheme).field.values)


def test_banded_cyclic_tridiagonal_solve_matches_dense():
    n = 37
    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    sub = -0.3 - 0.2 * np.sin(x)
    sup = -0.4 + 0.1 * np.cos(3.0 * x)
    dia = 1.5 + 0.5 * np.cos(x)
    rhs = np.exp(np.sin(2.0 * x)) - 1.2
    dense = np.diag(dia) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    dense[0, -1] = sub[0]
    dense[-1, 0] = sup[-1]
    want = np.linalg.solve(dense, rhs)
    got = solver._solve_cyclic_tridiag(sub, dia, sup, rhs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_two_dim_diffusion_matches_heat_semigroup():
    g = make_grid(5.0, 64, dim=2)
    xx, yy = g.meshes()
    u0 = GridField(g, np.exp(-(xx ** 2 + yy ** 2) / 0.5))
    problem = CauchyProblem(g, sigma=0.4, horizon=0.5,
                            nonlinearity=lambda tau, x, u, du: 0.0 * u,
                            initial=u0)
    res = solve_direct(problem, SchemeConfig(scheme="mild_etd2", dt=0.05))
    exact = heat_semigroup(u0, 0.4, 0.5)
    assert np.max(np.abs(res.field.values - exact.values)) < 1e-12


@pytest.mark.parametrize("measure", [
    MERTON, make_kou(0.4, 0.6, 8.0, 4.0), make_exponential_tail(1.0, 0.5, 3.0),
], ids=["merton", "kou", "exptail_alpha_0.5"])
def test_propagated_source_matches_analytic(measure):
    g = make_grid(3.0, 256, reach=estimate_reach(measure, None, 3.0))
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                            measure=measure, strike=100.0)
    plan = build_plan(g, measure)
    stats = solver._source_stats()
    taus = build_time_mesh(1.0, 0.02, grade=True)
    source = solver._compensated_source(problem, plan, taus)
    for tau in taus:
        source(float(tau), stats)
        if stats["source_switch_tau"] is not None:
            break
    assert stats["source_switch_gap"] <= solver.SOURCE_SWITCH_TOL
    done = stats["source_propagated"]
    bs = BlackScholesClosedForm(100.0, 0.05, 0.2, "put")
    for tau in (0.3, 0.6, 1.0):
        assert tau > stats["source_switch_tau"]
        # against the analytic source the solve evaluates: the closed form
        # for Merton and Kou, the node sum otherwise
        if measure.family[0] in solver.CLOSED_SOURCES:
            want = bs.jump_source(tau, g.axis(), measure.family)
        else:
            want = apply_f_tilde_fn(plan, lambda p: bs.u(tau, p),
                                    lambda p: bs.du_dx(tau, p), tau)
        got = Transforms(g).inv(source(tau, stats))
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12
    assert stats["source_propagated"] == done + 3


def test_propagated_source_steps_match_the_direct_exponential():
    # each propagated level is the previous one times exp(step L_BS); a
    # march that starts again from tau = 0 (the cross-check's) restarts
    # from tau_a and reads the same spectra
    g = make_grid(3.0, 256, reach=2.3)
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                            measure=MERTON, strike=100.0)
    stats = solver._source_stats()
    taus = build_time_mesh(1.0, 0.01, grade=True)
    source = solver._compensated_source(problem, build_plan(g, MERTON),
                                        taus, keep_levels=True)
    first = [source(float(tau), stats) for tau in taus]
    tau_a = stats["source_switch_tau"]
    h_a = source(tau_a, stats)
    tr = Transforms(g)
    L_bs = -0.5 * 0.2 ** 2 * tr.k2 + tr.ik[0] * (0.05 - 0.5 * 0.2 ** 2)
    later = taus > tau_a
    assert stats["source_propagated"] == np.count_nonzero(later) > 50
    for tau, got in zip(taus[later], itertools.compress(first, later)):
        want = np.exp((tau - tau_a) * L_bs) * h_a
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    again = [source(float(tau), stats) for tau in taus]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


@pytest.mark.parametrize("measure, shift, form", [
    (MERTON, None, "closed"),
    (make_kou(0.4, 0.6, 8.0, 4.0), None, "closed"),
    (NODE_MERTON, None, "nodes"),
    (make_exponential_tail(1.0, 0.5, 3.0), None, "nodes"),
    (MERTON, ShiftModel(strategy_tanh_ramp(0.3), rho=0.05), "nodes"),
    (None, None, None),
], ids=["merton", "kou", "untagged_merton", "tail_alpha_0.5",
        "tanh_ramp_rho_0.05", "no_jumps"])
def test_only_identity_merton_and_kou_solves_take_the_closed_source(
        measure, shift, form):
    market = MarketSpec(100.0, 100.0, 0.5, 0.03, 0.2, "put")
    res = price_european(market, measure, shift, n_core=128,
                         scheme=SchemeConfig(dt=0.05))
    st = res.result.stats
    assert st["source_form"] == form
    if form == "closed":
        assert 0.0 <= st["source_node_gap"] <= solver.SOURCE_NODE_TOL
        assert st["source_window_gap"] is None
        assert st["source_pairs"] == 0
        # the node sum prices the same law to within its own error, which
        # is largest at the first levels (1.9e-5 of max |h| at tau = 0.002
        # for Merton at n_core 1024): 1.9e-7 apart here for Merton
        untagged = dataclasses.replace(measure, family=None)
        nodes = price_european(market, untagged, n_core=128,
                               scheme=SchemeConfig(dt=0.05))
        assert nodes.result.stats["source_form"] == "nodes"
        assert res.price == pytest.approx(nodes.price, rel=3e-7)
    else:
        assert st["source_node_gap"] is None


@pytest.mark.parametrize("family", [
    ("kou", 0.5, 0.6, 8.0, 4.0),
    ("merton", 0.5, -0.1, 0.25),
    ("merton", 0.6, -0.1, 0.2),
], ids=["kou_tag", "wider_jumps", "higher_intensity"])
def test_a_family_tag_that_disagrees_with_the_density_stops_the_solve(
        family):
    g = _merton_grid(128)
    tagged = dataclasses.replace(MERTON, family=family)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                            measure=tagged, strike=100.0)
    with pytest.raises(ToleranceNotMetError, match="does not match"):
        solve_shifted(problem, SchemeConfig(dt=0.05))


@pytest.mark.parametrize("reader", ["propagator", "interpolant"])
def test_a_failed_reader_check_keeps_the_source_analytic(monkeypatch, reader):
    # propagation from half a cell, and an interpolant on four intervals,
    # miss the check; the checked level and every later one keep their
    # analytic values, so the field is that of the all-analytic solve
    if reader == "propagator":
        g = make_grid(3.0, 256, reach=2.3)
        problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                                measure=MERTON, strike=100.0)
        scheme = SchemeConfig(dt=0.02)
        count, gap, knob = "source_propagated", "source_switch_gap", \
            "SOURCE_SWITCH_CELLS"
        analytic, early = math.inf, 0.5
    else:
        problem, scheme = _demo_problem("impact_call.cfg", 256)
        count, gap, knob = "source_interpolated", "source_interp_gap", \
            "_interp_node_count"
        analytic, early = (lambda *a: 10 ** 9), (lambda *a: 4)
    monkeypatch.setattr(solver, knob, analytic)
    exact = solve_shifted(problem, scheme)
    monkeypatch.setattr(solver, knob, early)
    failed = solve_shifted(problem, scheme)
    st = failed.stats
    assert st[count] == 0
    assert st[gap] > 1e-10
    assert st["source_switch_tau"] is None
    # the interpolant's nodes past tau_a are the only extra evaluations
    assert st["source_analytic"] == exact.stats["source_analytic"] \
        + (st["source_interp_nodes"] or 0)
    assert np.array_equal(failed.field.values, exact.field.values)


def test_impacted_solve_keeps_the_source_analytic():
    g = make_grid(4.0, 128, reach=3.2)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                            measure=MERTON,
                            shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.04))
    res = solve_shifted(problem, SchemeConfig(dt=0.05))
    assert res.stats["source_propagated"] == 0
    assert res.stats["source_analytic"] == res.taus.size - 1
    assert res.stats["source_switch_tau"] is None
    assert res.stats["shift_fp_iterations"] > 0


@pytest.mark.parametrize("sigma", [0.15, 0.3])
@pytest.mark.parametrize("strategy", [
    strategy_tanh_ramp(0.3), strategy_sin(0.3), strategy_linear(0.1),
], ids=["tanh_ramp", "sin", "linear"])
def test_interpolated_source_matches_analytic_at_every_level(strategy, sigma):
    # the impacted benchmark rows' size: n_core 512, dt 0.02, T = 1
    shift = ShiftModel(strategy, rho=0.04)
    g = make_grid(6.0, 512, reach=estimate_reach(MERTON, shift, 6.0))
    problem = CauchyProblem(g, sigma=sigma, horizon=1.0, rate=0.05,
                            measure=MERTON, shift=shift, strike=100.0)
    plan = build_plan(g, MERTON, shift)
    taus = build_time_mesh(1.0, 0.02, grade=True)
    stats = solver._source_stats()
    source = solver._compensated_source(problem, plan, taus)
    bs = BlackScholesClosedForm(100.0, 0.05, sigma, "put")
    past = []
    for tau in map(float, taus):
        got = Transforms(g).inv(source(tau, stats))
        if stats["source_interp_nodes"] is None:
            continue
        if not past:  # tau_a itself is the first node
            tau_a, n = tau, stats["source_interp_nodes"]
        want = apply_f_tilde_fn(plan, lambda p: bs.u(tau, p),
                                lambda p: bs.du_dx(tau, p), tau)
        past.append(solver._rel_max(got, want))
    assert sigma * math.sqrt(tau_a) >= solver.SOURCE_SWITCH_CELLS * g.dx
    assert n == solver._interp_node_count(tau_a, 1.0)
    # the interpolant serves every level past tau_a, the checked level and
    # the horizon (a node) included
    assert n + 1 < len(past) - 1 == stats["source_interpolated"]
    assert max(past) <= 1e-10
    assert stats["source_interp_gap"] <= solver.SOURCE_SWITCH_TOL
    # the levels before tau_a, the n + 1 nodes and the check are analytic
    assert stats["source_analytic"] == (taus.size - len(past)) + (n + 1) + 1


def test_failed_interpolation_check_keeps_the_source_analytic(monkeypatch):
    problem, scheme = _demo_problem("impact_call.cfg", 256)
    monkeypatch.setattr(solver, "_interp_node_count", lambda *a: 10 ** 9)
    disabled = solve_shifted(problem, scheme)
    assert disabled.stats["source_interp_nodes"] is None
    assert disabled.stats["source_interp_gap"] is None
    assert disabled.stats["source_interpolated"] == 0
    assert disabled.stats["source_analytic"] == disabled.taus.size - 1
    # four intervals cannot carry the source to 1e-10: the check fails, and
    # the failed level and every later one are the analytic values
    monkeypatch.setattr(solver, "_interp_node_count", lambda *a: 4)
    failed = solve_shifted(problem, scheme)
    assert failed.stats["source_interp_nodes"] == 4
    assert failed.stats["source_interp_gap"] > 1e-10
    assert failed.stats["source_interpolated"] == 0
    # the nodes past tau_a are the only extra analytic evaluations
    assert failed.stats["source_analytic"] \
        == disabled.stats["source_analytic"] + 4
    assert np.array_equal(failed.field.values, disabled.field.values)


def test_a_short_span_past_tau_a_builds_no_interpolant():
    # at n_core 128 tau_a is near the horizon, where four nodes per half
    # unit of ln(T / tau_a) would give N = 4; the floor of 8 leaves too few
    # levels past tau_a to build it, so no node is evaluated in vain
    problem, scheme = _demo_problem("impact_call.cfg", 128)
    res = solve_shifted(problem, scheme)
    assert res.stats["source_interp_nodes"] is None
    assert res.stats["source_interp_gap"] is None
    assert res.stats["source_analytic"] == res.taus.size - 1


@pytest.mark.parametrize("scheme_name,cross_check", [("mild_etd2", False),
                                                      ("imex_bdf2", True)])
def test_interpolated_source_in_other_schemes_and_the_cross_check(
        monkeypatch, scheme_name, cross_check):
    problem, scheme = _demo_problem("impact_call.cfg", 512)
    scheme = dataclasses.replace(scheme, scheme=scheme_name,
                                 cross_check=cross_check)
    fast = solve_shifted(problem, scheme)
    assert fast.stats["source_interpolated"] > 0
    assert fast.stats["source_interp_gap"] <= solver.SOURCE_SWITCH_TOL
    if cross_check:
        # mild_etd2 reads the main solve's interpolant: its field has the
        # bits of its own solve
        other = solve_shifted(problem, dataclasses.replace(
            scheme, scheme="mild_etd2", cross_check=False))
        gap = fast.stats["cross_check_gap"]
        assert gap == solver._rel_l2(fast.field.values, other.field.values)
        assert gap <= scheme.cross_check_tol
    monkeypatch.setattr(solver, "_interp_node_count", lambda *a: 10 ** 9)
    exact = solve_shifted(problem, scheme)
    assert exact.stats["source_interpolated"] == 0
    i0 = int(np.argmin(np.abs(problem.grid.axis())))
    price, want = fast.field.values[i0], exact.field.values[i0]
    assert abs(price / want - 1.0) <= 1e-12
    if cross_check:
        assert gap == pytest.approx(exact.stats["cross_check_gap"], rel=1e-6)


def test_shift_resolve_time_is_part_of_the_band_build():
    g = make_grid(4.0, 128, reach=3.2)
    shifted = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                            measure=MERTON,
                            shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.04))
    stats = solve_shifted(shifted, SchemeConfig(dt=0.05)).stats
    assert stats["operator"] == "band"
    assert 0.0 < stats["shift_resolve_s"] <= stats["operator_build_s"]
    # a singular density under the identity shift applies its stencil
    # symbol: no band is built and no shift resolved
    tail = make_exponential_tail(1.0, 0.5, 3.0)
    g = make_grid(4.0, 128, reach=estimate_reach(tail, None, 4.0))
    identity = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                             measure=tail)
    stats = solve_shifted(identity, SchemeConfig(dt=0.05)).stats
    assert stats["operator"] == "fft"
    assert stats["operator_build_s"] == 0.0
    assert stats["shift_resolve_s"] == 0.0


@pytest.mark.parametrize("scheme,per_level", [("imex_bdf2", 1),
                                              ("mild_etd2", 2)])
def test_solve_counts_explicit_evaluations(scheme, per_level):
    g = _merton_grid(256)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.2, rate=0.03,
                            measure=MERTON)
    res = solve_shifted(problem, SchemeConfig(scheme=scheme, dt=0.02))
    assert res.stats["explicit_evaluations"] == per_level * (res.taus.size - 1)
    # the identity shift resolves nothing
    assert res.stats["shift_fp_iterations"] == 0
    assert res.stats["shift_fallback_points"] == 0


def test_mild_etd2_keeps_the_phi_functions_of_recent_step_sizes(monkeypatch):
    # kou_put's mesh (T = 0.5, dt = 0.01): 69 steps of 28 distinct sizes,
    # the uniform stretch's alternating between neighbouring floats
    g = make_grid(6.0, 256, reach=estimate_reach(make_kou(0.4, 0.6, 8.0, 4.0),
                                                 None, 6.0))
    problem = CauchyProblem(g, sigma=0.25, horizon=0.5, rate=0.03,
                            measure=make_kou(0.4, 0.6, 8.0, 4.0), strike=95.0,
                            option_type="put")
    scheme = SchemeConfig(scheme="mild_etd2", dt=0.01)
    taus = build_time_mesh(0.5, 0.01, grade=True)
    assert taus.size == 70 and np.unique(np.diff(taus)).size == 28
    calls = [0]
    phis = solver._phis

    def counted(z):
        calls[0] += 1
        return phis(z)

    monkeypatch.setattr(solver, "_phis", counted)
    kept = solve_shifted(problem, scheme)
    assert calls[0] == 28
    # keeping the latest step size alone recomputes at 58 steps
    monkeypatch.setattr(solver, "_PHIS_KEPT", 1)
    calls[0] = 0
    latest = solve_shifted(problem, scheme)
    assert calls[0] == 58
    assert np.array_equal(kept.field.values, latest.field.values)


def test_two_dimensional_pricing_form_is_unsupported():
    # the pricing drift r - sigma^2/2 - mean is one-dimensional: a 2-D
    # problem without a nonlinearity marched diffusion alone and returned
    # the same field for every rate
    g = make_grid(5.0, 64, dim=2)
    xx, yy = g.meshes()
    problem = CauchyProblem(g, sigma=0.3, horizon=0.5, rate=0.5,
                            initial=GridField(g, np.exp(-(xx ** 2 + yy ** 2))))
    with pytest.raises(UnsupportedConfigurationError, match="nonlinearity"):
        solve_direct(problem, SchemeConfig(dt=0.01))


def test_two_dimensional_plan_checks_the_padding_against_the_jump_radius():
    # pad * dx = 0.625 against a jump radius of 2.56: the lattice symbol
    # would wrap the long jumps around the periodic box
    g = make_grid(5.0, 64, reach=0.0, dim=2)
    nu = levy_pair(make_merton(0.3, 0.1, 0.25), make_merton(0.4, -0.2, 0.2))
    assert g.pad * g.dx < nu.jump_radius
    x = g.axis()
    problem = CauchyProblem(g, sigma=0.3, horizon=0.1, measure=nu,
                            initial=GridField(g, np.outer(np.exp(-x ** 2),
                                                          np.exp(-x ** 2))))
    with pytest.raises(OutOfDomainError, match="padding"):
        solve_direct(problem, SchemeConfig(dt=0.01))


@pytest.mark.parametrize("scheme", ["imex_bdf2", "mild_etd2"])
def test_stability_margin_is_dt_over_the_checked_bound(scheme):
    g = _merton_grid(256)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.2, rate=0.03,
                            measure=MERTON, initial=_gaussian(g))
    res = solve_direct(problem, SchemeConfig(scheme=scheme, dt=0.05))
    # FFT path: the explicit jump multiplier is bounded by 2 * mass
    margin = res.stats["stability_margin"]
    assert margin == pytest.approx(0.05 * 2.0 * build_plan(g, MERTON).mass,
                                   rel=1e-14)
    assert 0.0 < margin < 1.0
    # past the bound both schemes refuse to march
    impact = ShiftModel(strategy_tanh_ramp(0.1), rho=0.01)
    shifted = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.03,
                            measure=MERTON, initial=_gaussian(g), shift=impact)
    with pytest.raises(StabilityError):
        solve_direct(shifted, SchemeConfig(scheme=scheme, dt=0.5))
    # a step 10% past 1 / (2 mass), on a horizon long enough to take it
    long = dataclasses.replace(problem, horizon=5.0)
    with pytest.raises(StabilityError):
        solve_direct(long, SchemeConfig(scheme=scheme, dt=1.1 * 0.05 / margin))
    # a singular density's stencil symbol is bounded the same way
    tail = make_exponential_tail(1.0, 0.5, 3.0)
    gt = make_grid(4.0, 256, reach=estimate_reach(tail, None, 4.0))
    res = solve_direct(CauchyProblem(gt, sigma=0.2, horizon=0.2, rate=0.03,
                                     measure=tail, initial=_gaussian(gt)),
                       SchemeConfig(scheme=scheme, dt=0.05))
    assert res.stats["stability_margin"] == pytest.approx(
        0.05 * 2.0 * build_plan(gt, tail).mass, rel=1e-14)
    # the alpha = 1.5 tail at the price_european step is refused, not marched
    market = MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2)
    with pytest.raises(StabilityError, match="bound 5.278e-05"):
        price_european(market, make_exponential_tail(1.0, 1.5, 3.0),
                       scheme=SchemeConfig(scheme=scheme,
                                           dt=market.T / DEFAULT_STEPS))


def _full_sum_only(plan, fn, dfn, tau, live=None):
    """apply_f_tilde_fn with the live window switched off."""
    return apply_f_tilde_fn(plan, fn, dfn, tau)


@pytest.mark.parametrize("rho", [0.0, 0.05])
def test_failed_window_check_falls_back_to_the_full_sum(monkeypatch, rho):
    g = make_grid(4.0, 128, reach=2.6)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.1, rate=0.03,
                            measure=NODE_MERTON, strike=100.0,
                            shift=ShiftModel(strategy_tanh_ramp(0.3), rho=rho))
    scheme = SchemeConfig(dt=0.02)
    windowed = solve_shifted(problem, scheme)
    assert windowed.stats["source_window_gap"] <= 1e-13
    assert windowed.stats["source_pair_fraction"] < 0.5
    # a tolerance no gap can meet fails the check (it also fails every
    # propagation check, so the window-free run gets the same tolerance)
    monkeypatch.setattr(solver, "SOURCE_SWITCH_TOL", -1.0)
    failed = solve_shifted(problem, scheme)
    monkeypatch.setattr(solver, "apply_f_tilde_fn", _full_sum_only)
    disabled = solve_shifted(problem, scheme)
    assert np.array_equal(failed.field.values, disabled.field.values)
    assert failed.stats["source_window_gap"] >= 0.0
    # every level evaluated the full sum, the check level the window too;
    # at tau = 0, the kink, the identity window lands no pair live
    fraction = failed.stats["source_pair_fraction"]
    assert fraction == 1.0 if rho == 0.0 else 1.0 < fraction < 1.5
    assert not np.array_equal(failed.field.values, windowed.field.values)


def test_window_check_catches_a_wrong_live_interval(monkeypatch):
    g = make_grid(4.0, 128, reach=2.6)
    problem = CauchyProblem(g, sigma=0.2, horizon=0.1, rate=0.03,
                            measure=NODE_MERTON, strike=100.0)
    scheme = SchemeConfig(dt=0.02)
    monkeypatch.setattr(solver, "apply_f_tilde_fn", _full_sum_only)
    disabled = solve_shifted(problem, scheme)
    monkeypatch.undo()
    # an interval that skips the pairs around the kink, with the true side
    # profiles
    live = BlackScholesClosedForm.live_interval
    monkeypatch.setattr(BlackScholesClosedForm, "live_interval",
                        lambda self, tau: (1.0, 1.0, *live(self, tau)[2:]))
    broken = solve_shifted(problem, scheme)
    assert broken.stats["source_window_gap"] > 1e-3
    assert np.array_equal(broken.field.values, disabled.field.values)


# --- the Nyquist coefficient of the explicit term ---------------------------

NYQUIST_MARKET = MarketSpec(100.0, 107.4926, 1.0, 0.0254, 0.1551, "put")


def test_tiny_tail_price_keeps_a_real_nyquist_coefficient():
    # ik drift in the implicit multiplier makes the state's Nyquist
    # coefficient complex; kept in the explicit term, it moved this price to
    # 19.27569086133484, 6.0e-7 off the real-space route's value
    res = price_european(NYQUIST_MARKET, make_exponential_tail(1.0, 0.5, 3.0),
                         n_core=64,
                         scheme=SchemeConfig(scheme="imex_bdf2", dt=0.1))
    assert res.price == pytest.approx(19.275679302813806, rel=1e-13, abs=0.0)


def test_explicit_term_has_a_real_nyquist_coefficient():
    tail = make_exponential_tail(1.0, 0.5, 3.0)
    g = make_grid(6.0, 64, reach=estimate_reach(tail, None, 6.0))
    problem = transform_to_pide(NYQUIST_MARKET, g, tail, None)
    plan = build_plan(g, tail)
    _, _, _, N_fn, _ = solver._prepare_rhs(
        problem, SchemeConfig(scheme="imex_bdf2", dt=0.1), None, plan)
    u_hat = np.fft.rfft(np.exp(-g.axis() ** 2))
    u_hat[-1] += 0.5j
    out = N_fn(0.5, u_hat, None)
    assert out[-1].imag == 0.0
    # the bounded jump term, its Nyquist coefficient's real part kept
    want = (plan.symbol_conv - plan.mass) * u_hat
    want[-1] = want[-1].real
    assert np.array_equal(out, want)
