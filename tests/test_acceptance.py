"""End-to-end acceptance gate: twelve numbered criteria, one test each.

Each test prints one PASS line with its key numbers; a failing assert turns
the line into a pytest FAILED entry, so `pytest -v tests/test_acceptance.py`
reads as the acceptance scorecard.  Stated runtime budgets are asserted too.
"""
import math
import time

import numpy as np
from scipy.special import k0

from levypide.bessel import (BesselKernel, kernel_eval,
                             modulus_of_continuity_probe, q_estimate_probe,
                             synthetic_bounded_shift, synthetic_smooth_field)
from levypide.grids import Grid, GridField, make_grid
from levypide.jump_operator import (apply_f, apply_f_tilde_fn, build_plan,
                                    f_bound_probe, plan_symbol_table,
                                    reference_symbol)
from levypide.measures import levy_pair, make_kou, make_merton
from levypide.pricing import (MarketSpec, bs_closed_form,
                              merton_series_oracle, price_european)
from levypide.shift import (ShiftModel, resolve_xi, resolve_xi_first_order,
                            strategy_tanh_ramp)
from levypide.solver import (CauchyProblem, SchemeConfig,
                             singular_source_decay_probe, solve_direct,
                             solve_shifted)

MKT = MarketSpec(100.0, 100.0, 1.0, 0.05, 0.2, "call")
MERTON = make_merton(0.5, -0.1, 0.2)
ORACLE_PRICE = 12.164203195593313  # frozen after dual independent computation


def test_criterion_01_black_scholes_degeneration():
    t0 = time.perf_counter()
    res = price_european(MKT, None, None, n_core=2048,
                         scheme=SchemeConfig(dt=MKT.T / 2000.0))
    elapsed = time.perf_counter() - t0
    want = bs_closed_form(MKT)
    rel = abs(res.price - want) / want
    assert rel < 1e-6
    assert elapsed < 5.0
    print(f"PASS criterion 1: jump-free price matches the closed form "
          f"(rel={rel:.3e}, {elapsed:.2f}s)")


def test_criterion_02_lognormal_jump_oracle_and_order():
    t0 = time.perf_counter()
    oracle = merton_series_oracle(MKT, (0.5, -0.1, 0.2))
    assert abs(oracle - ORACLE_PRICE) < 1e-12
    errs = []
    for n, dt in ((512, 4e-2), (1024, 2e-2), (2048, 1e-2)):
        res = price_european(MKT, MERTON, None, n_core=n,
                             scheme=SchemeConfig(dt=dt))
        errs.append(abs(res.price - oracle) / oracle)
    elapsed = time.perf_counter() - t0
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert errs[-1] < 1e-3
    assert all(1.7 <= p <= 2.3 for p in orders)
    assert elapsed < 60.0
    print(f"PASS criterion 2: lognormal-jump price matches the series oracle "
          f"(rel={errs[-1]:.3e}, orders={orders[0]:.2f}/{orders[1]:.2f}, "
          f"{elapsed:.1f}s)")


def test_criterion_03_zero_impact_degeneration():
    g = make_grid(6.0, 512, reach=2.6)
    sch = SchemeConfig(dt=0.02)
    plain = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                          measure=MERTON, strike=100.0)
    nulled = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                           measure=MERTON, strike=100.0,
                           shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.0))
    a = solve_shifted(plain, sch)
    b = solve_shifted(nulled, sch)
    assert np.array_equal(a.field.values, b.field.values)
    gap = float(np.max(np.abs(a.field.values - b.field.values)))
    assert gap < 1e-10
    print(f"PASS criterion 3: rho=0 impacted solve equals the linear solve "
          f"bit-for-bit (terminal gap={gap:.1e})")


def test_criterion_04_first_order_expansion_rate():
    t0 = time.perf_counter()
    strat = strategy_tanh_ramp(0.3)
    xs = np.linspace(-2.0, 2.0, 21)
    zs = np.concatenate([-np.geomspace(0.05, 2.0, 12),
                         np.geomspace(0.05, 2.0, 12)])
    gaps = []
    for rho in (0.02, 0.01):
        model = ShiftModel(strat, rho=rho)
        worst = 0.0
        for z in zs:
            fp = resolve_xi(model, 0.0, xs, float(z))
            fo = resolve_xi_first_order(model, 0.0, xs, float(z))
            worst = max(worst, float(np.max(np.abs(fp - fo))))
        gaps.append(worst)
    elapsed = time.perf_counter() - t0
    ratio = gaps[0] / gaps[1]
    assert 3.0 <= ratio <= 5.0
    assert elapsed < 5.0
    print(f"PASS criterion 4: linearization gap shrinks x{ratio:.2f} when "
          f"rho halves ({elapsed:.2f}s)")


def test_criterion_05_compensated_exponential_annihilation():
    worst = 0.0
    tau = 0.5
    K, r = 100.0, 0.05
    for nu in (MERTON, make_kou(0.4, 0.6, 8.0, 4.0)):
        reach = nu.shape.tail_radius(1, 1e-10)
        g = make_grid(6.0, 1024, reach=reach)
        plan = build_plan(g, nu)
        h = apply_f_tilde_fn(plan, lambda x: K * np.exp(x + r * tau),
                             lambda x: K * np.exp(x + r * tau), tau)
        worst = max(worst, float(np.max(np.abs(h))) / (K * math.exp(r * tau)))
    assert worst < 1e-6
    print(f"PASS criterion 5: compensated operator annihilates K e^(x+r tau) "
          f"(worst rel={worst:.1e})")


def test_criterion_06_plane_wave_symbol():
    # pad chosen so the probe wavenumbers are exact modes of the padded box
    g = Grid(dim=1, half_width=4.0 * math.pi, n_core=2048, pad=256)
    assert abs(g.n_total * g.dx - 10.0 * math.pi) < 1e-12
    plan = build_plan(g, MERTON)
    x = g.axis()
    worst_apply = 0.0
    for k in (1.0, 2.0, 4.0):
        phi = reference_symbol(MERTON, k)
        u = GridField(g, np.cos(k * x))
        got = apply_f(plan, u).values
        want = phi.real * np.cos(k * x) - phi.imag * np.sin(k * x)
        worst_apply = max(worst_apply,
                          float(np.max(np.abs(got - want))) / abs(phi))
    worst_nodes = max(gap for _, _, _, gap in
                      plan_symbol_table(plan, (1.0, 2.0, 4.0)))
    assert worst_apply < 1e-6
    assert worst_nodes < 1e-6
    print(f"PASS criterion 6: plane waves see the reference symbol "
          f"(apply gap={worst_apply:.1e}, node gap={worst_nodes:.1e})")


def test_criterion_07_early_time_source_decay():
    t0 = time.perf_counter()
    g = make_grid(3.0, 8192, reach=2.3)
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                            measure=MERTON, strike=100.0)
    slopes = {}
    for gamma in (0.5, 0.75):
        rep = singular_source_decay_probe(problem, gamma)
        assert not rep.skipped
        assert rep.passed
        slopes[gamma] = (rep.slope, rep.bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    desc = ", ".join(f"gamma={g_}: slope {s:.3f} >= {b:.3f}"
                     for g_, (s, b) in slopes.items())
    print(f"PASS criterion 7: early-time source decay within the integrable "
          f"band ({desc}, {elapsed:.1f}s)")


def test_criterion_08_smoothing_kernel_suite():
    for order in (0.5, 1.0, 1.6, 2.0):
        for dim in (1, 2):
            assert abs(BesselKernel(order, dim).mass() - 1.0) < 1e-6
    # two-sided exponential closed form on the line
    worst2 = max(abs(kernel_eval(2.0, 1, x) - 0.5 * math.exp(-abs(x)))
                 for x in (0.25, 1.0, 2.5))
    assert worst2 < 1e-6
    # modified-Bessel closed form one order down, fixing the indexing
    worst1 = max(abs(kernel_eval(1.0, 1, x) - float(k0(abs(x))) / math.pi)
                 for x in (0.25, 1.0, 2.5))
    assert worst1 < 1e-6
    shifts = np.geomspace(1e-3, 1e-1, 7)
    spreads = {}
    for alpha in (0.3, 0.5, 0.8):
        rep = modulus_of_continuity_probe(alpha, 1, shifts)
        assert rep.passed and rep.spread < 10.0
        spreads[alpha] = rep.spread
    desc = ", ".join(f"{a}: {s:.2f}" for a, s in spreads.items())
    print(f"PASS criterion 8: kernel mass/closed-form/modulus suite "
          f"(closed-form gaps {worst2:.1e}/{worst1:.1e}, spreads {desc})")


def test_criterion_09_operator_bound_probes_grid_stable():
    gamma = 0.75
    reach = MERTON.shape.tail_radius(1, 1e-10)
    fb, qe = {}, {}
    for n in (512, 1024):
        g = make_grid(4.0, n, reach=reach)
        plan = build_plan(g, MERTON)
        fields = [synthetic_smooth_field(g, i) for i in range(5)]
        rep = f_bound_probe(plan, fields, gamma)
        assert rep.passed
        assert all(math.isfinite(r) for r in rep.ratios)
        fb[n] = rep.ratios
        qs = []
        for i in range(5):
            u = synthetic_smooth_field(g, i)
            xi1 = synthetic_bounded_shift(g, i, 0.2)
            xi2 = synthetic_bounded_shift(g, i + 7, 0.1)
            q = q_estimate_probe(u, xi1, xi2, gamma)
            assert math.isfinite(q) and q > 0.0
            qs.append(q)
        qe[n] = qs
    drift_f = max(abs(a / b - 1.0) for a, b in zip(fb[512], fb[1024]))
    drift_q = max(abs(a / b - 1.0) for a, b in zip(qe[512], qe[1024]))
    assert drift_f < 0.20
    assert drift_q < 0.20
    print(f"PASS criterion 9: operator-bound probes finite and grid-stable "
          f"(drift f={drift_f:.1e}, q={drift_q:.1e})")


def test_criterion_10_two_dimensional_separability():
    t0 = time.perf_counter()
    nux = make_merton(0.3, 0.1, 0.25)
    nuy = make_merton(0.4, -0.2, 0.2)
    T, sig, dt = 0.25, 0.3, 1e-3
    zero = lambda tau, x, u, du: np.zeros_like(u)
    g1 = make_grid(5.0, 256, reach=3.0)
    x = g1.axis()
    a0 = np.exp(-1.3 * x ** 2)
    b0 = np.exp(-0.8 * x ** 2) * (1.0 + 0.3 * np.sin(x))
    sch = SchemeConfig(scheme="mild_etd2", dt=dt)
    ra = solve_direct(CauchyProblem(g1, sig, T, measure=nux,
                                    nonlinearity=zero,
                                    initial=GridField(g1, a0)), sch)
    rb = solve_direct(CauchyProblem(g1, sig, T, measure=nuy,
                                    nonlinearity=zero,
                                    initial=GridField(g1, b0)), sch)
    g2 = make_grid(5.0, 256, reach=3.0, dim=2)
    u0 = GridField(g2, np.outer(a0, b0))
    r2 = solve_direct(CauchyProblem(g2, sig, T, measure=levy_pair(nux, nuy),
                                    nonlinearity=zero, initial=u0), sch)
    prod = np.outer(ra.field.values, rb.field.values)
    rel = (float(np.linalg.norm(r2.field.values - prod))
           / float(np.linalg.norm(prod)))
    elapsed = time.perf_counter() - t0
    assert rel < 1e-6
    assert elapsed < 120.0
    print(f"PASS criterion 10: separable 2-D solve factors into 1-D solves "
          f"(rel={rel:.1e}, {elapsed:.1f}s)")


def test_criterion_11_scheme_cross_validation():
    g = make_grid(4.0, 512, reach=2.3)
    x = g.axis()
    initial = GridField(g, np.exp(-x ** 2 / 0.5))
    consts = []
    for dt in (0.01, 0.005, 0.0025):
        problem = CauchyProblem(g, sigma=0.2, horizon=0.5, rate=0.03,
                                measure=MERTON, initial=initial)
        a = solve_direct(problem, SchemeConfig(scheme="imex_bdf2", dt=dt))
        b = solve_direct(problem, SchemeConfig(scheme="mild_etd2", dt=dt))
        num = float(np.linalg.norm(a.field.values - b.field.values))
        den = float(np.linalg.norm(b.field.values))
        consts.append((num / den) / dt ** 2)
    spread = max(consts) / min(consts)
    assert spread < 3.0
    print(f"PASS criterion 11: scheme discrepancy scales as dt^2 "
          f"(C={consts[-1]:.4f}, level spread x{spread:.3f})")


def test_criterion_12_fractional_norm_monitor_bounded():
    g = make_grid(6.0, 1024, reach=2.6)
    problem = CauchyProblem(g, sigma=0.2, horizon=1.0, rate=0.05,
                            measure=MERTON, strike=100.0)
    res = solve_shifted(problem, SchemeConfig(dt=0.01, checkpoint_count=10,
                                              monitor_gamma=0.6))
    norms = [v for _, v in res.checkpoints]
    assert len(norms) == 10
    assert all(math.isfinite(v) and v > 0 for v in norms)
    ratio = norms[-1] / norms[0]
    assert ratio < 1e3
    print(f"PASS criterion 12: smoothing-norm monitor stays bounded "
          f"(last/first={ratio:.2f})")
