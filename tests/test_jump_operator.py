import dataclasses
import math

import numpy as np
import pytest

from levypide import jump_operator
from levypide.bessel import synthetic_smooth_field
from levypide.blackscholes import BlackScholesClosedForm
from levypide.errors import (OutOfDomainError, ParameterDomainError,
                             PlanInvalidError, UnsupportedConfigurationError)
from levypide.grids import (Grid, GridField, cubic_interp_periodic, gradient,
                            make_grid)
from levypide.jump_operator import (apply_f, apply_f_tilde, apply_f_tilde_fn,
                                    build_plan, delta_on_plan_nodes,
                                    f_bound_probe, plan_symbol_table,
                                    reference_symbol, small_jump_compensation)
from levypide.measures import (levy_exponent, levy_pair,
                               make_exponential_tail, make_kou, make_merton,
                               moments)
from levypide.pricing import estimate_reach
from levypide.shift import (ShiftModel, TradingStrategy, compute_delta,
                            strategy_from_table, strategy_linear, strategy_sin,
                            strategy_tanh_ramp, xi_on_grid)

MERTON = make_merton(0.5, -0.1, 0.2)
KOU = make_kou(0.4, 0.6, 8.0, 4.0)


def _grid_for(measure, half_width=4.0, n=512):
    reach = measure.shape.tail_radius(1, 1e-10)
    return make_grid(half_width, n, reach=reach)


def test_reference_symbol_matches_merton_closed_form():
    lam, m, s = 0.5, -0.1, 0.2
    for k in (0.5, 1.0, 3.0):
        got = reference_symbol(MERTON, k)
        want = lam * (np.exp(1j * k * m - 0.5 * (s * k) ** 2) - 1.0 - 1j * k * m)
        assert abs(got - want) < 1e-9


def test_plan_symbol_table_gaps():
    g = _grid_for(MERTON)
    plan = build_plan(g, MERTON)
    for k, node_sym, ref, gap in plan_symbol_table(plan, [1.0, 2.0, 4.0]):
        assert gap < 1e-8, (k, gap)


def test_operator_annihilates_compensated_exponential():
    # the compensated operator applied to c e^x vanishes node-by-node
    for nu in (MERTON, KOU):
        g = _grid_for(nu)
        plan = build_plan(g, nu, force_quadrature=True)
        c = 37.5
        vals = apply_f_tilde_fn(plan, lambda x: c * np.exp(x),
                                lambda x: c * np.exp(x), 0.0)
        scale = c * math.exp(g.half_width + g.pad * g.dx)
        assert np.max(np.abs(vals)) < 1e-10 * scale


def _per_node_f_tilde_fn(plan, fn, dfn, tau):
    """The node-by-node sum that apply_f_tilde_fn evaluates in blocks."""
    xv = plan.grid.axis()
    if plan.shift is None:
        wh, xi = jump_operator._identity_shifts(plan)
    else:
        band = jump_operator._band(plan, tau)
        wh, xi = band.wh, [row for block in band.xi for row in block]
    base, slope = fn(xv), dfn(xv)
    out = np.zeros_like(base)
    for whj, xij in zip(wh, xi):
        out += whj * (fn(xv + xij) - base - np.expm1(xij) * slope)
    return out


@pytest.mark.parametrize("rho,nodes_per_panel", [(0.0, 7), (0.05, 16)])
def test_block_f_tilde_fn_matches_per_node_sum(rho, nodes_per_panel):
    # 7 nodes per panel leaves a last block shorter than the others
    shift = ShiftModel(strategy_tanh_ramp(0.3), rho=rho)
    g = make_grid(4.0, 256, reach=estimate_reach(MERTON, shift, 4.0))
    plan = build_plan(g, MERTON, shift, force_quadrature=True,
                      nodes_per_panel=nodes_per_panel)
    assert (plan.shift is None) == (rho == 0.0)
    bs = BlackScholesClosedForm(1.0, 0.03, 0.2, "put")
    for tau in (0.002, 0.5):
        got = apply_f_tilde_fn(plan, lambda p: bs.u(tau, p),
                               lambda p: bs.du_dx(tau, p), tau)
        want = _per_node_f_tilde_fn(plan, lambda p: bs.u(tau, p),
                                    lambda p: bs.du_dx(tau, p), tau)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_fft_and_quadrature_paths_agree():
    g = _grid_for(MERTON)
    fast = build_plan(g, MERTON)
    slow = build_plan(g, MERTON, force_quadrature=True)
    assert fast.uses_fft and not slow.uses_fft
    for idx in range(10):
        u = synthetic_smooth_field(g, idx)
        a = apply_f(fast, u).values
        b = apply_f(slow, u).values
        scale = max(np.max(np.abs(a)), 1e-30)
        assert np.max(np.abs(a - b)) < 1e-5 * scale, idx


def test_operator_is_linear_and_kills_constants():
    g = _grid_for(KOU)
    plan = build_plan(g, KOU)
    u = synthetic_smooth_field(g, 2)
    v = synthetic_smooth_field(g, 5)
    w = GridField(g, 1.7 * u.values - 0.4 * v.values)
    combo = apply_f(plan, w).values
    parts = 1.7 * apply_f(plan, u).values - 0.4 * apply_f(plan, v).values
    assert np.max(np.abs(combo - parts)) < 1e-10 * max(np.max(np.abs(parts)), 1.0)
    const = GridField(g, np.full(g.n_total, 3.3))
    assert np.max(np.abs(apply_f(plan, const).values)) < 1e-12


def test_translation_equivariance_on_the_lattice():
    g = _grid_for(MERTON)
    plan = build_plan(g, MERTON, force_quadrature=True)
    u = synthetic_smooth_field(g, 4)
    shift_cells = 17
    rolled = GridField(g, np.roll(u.values, shift_cells))
    a = apply_f(plan, rolled).values
    b = np.roll(apply_f(plan, u).values, shift_cells)
    assert np.max(np.abs(a - b)) < 1e-11 * max(np.max(np.abs(b)), 1.0)


def test_compensated_equals_plain_minus_drift_term():
    g = _grid_for(MERTON)
    plan = build_plan(g, MERTON, force_quadrature=True)
    u = synthetic_smooth_field(g, 7)
    du = gradient(u)[0]
    lhs = apply_f_tilde(plan, u).values
    rhs = apply_f(plan, u).values - plan.delta0 * du
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1.0)


def test_delta_on_plan_nodes_identity_shift():
    g = _grid_for(MERTON)
    plan = build_plan(g, MERTON)
    vals = delta_on_plan_nodes(plan, 0.0)
    assert np.all(vals == vals[0])
    want = float(moments(MERTON).compensated_exp_moment)
    assert abs(vals[0] - want) < 1e-8


def test_shifted_plan_reduces_to_identity_at_rho_zero():
    g = _grid_for(MERTON)
    base = build_plan(g, MERTON)
    shifted = build_plan(g, MERTON,
                         shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.0))
    assert shifted.shift is None
    u = synthetic_smooth_field(g, 1)
    assert np.array_equal(apply_f(base, u).values, apply_f(shifted, u).values)


def test_small_jump_compensation_scaling():
    # for density ~ c0 |z|^-alpha near zero the inner second moment scales
    # like eps^(3 - alpha)
    nu = make_exponential_tail(1.0, 0.5, 1.0)
    s_full = small_jump_compensation(nu, 1e-3)
    s_half = small_jump_compensation(nu, 5e-4)
    assert abs(s_full / s_half - 2.0 ** 2.5) < 0.05 * 2.0 ** 2.5
    with pytest.raises(ParameterDomainError):
        small_jump_compensation(nu, 0.0)
    # only 1-D plans have an inner cutoff
    for nu2 in (levy_pair(nu, nu), make_exponential_tail(1.0, 0.5, 1.0, dim=2)):
        with pytest.raises(ParameterDomainError):
            small_jump_compensation(nu2, 1e-3)


def test_build_plan_validations():
    g1 = _grid_for(MERTON)
    with pytest.raises(ParameterDomainError):
        build_plan(g1, make_exponential_tail(0.5, 3.2, 1.0))
    tight = make_grid(4.0, 512)  # stencil-only padding, far below the reach
    with pytest.raises(OutOfDomainError):
        build_plan(tight, MERTON)
    g2 = make_grid(4.0, 64, reach=2.0, dim=2)
    with pytest.raises(UnsupportedConfigurationError):
        build_plan(g2, levy_pair(MERTON, MERTON),
                   shift=ShiftModel(strategy_tanh_ramp(0.3), rho=0.1))
    with pytest.raises(ParameterDomainError):
        build_plan(g2, MERTON)  # measure dim 1 on a dim-2 grid
    with pytest.raises(UnsupportedConfigurationError, match="no quadrature"):
        build_plan(g2, levy_pair(MERTON, MERTON), force_quadrature=True)


def test_apply_f_refuses_a_field_of_another_grid():
    plan = build_plan(_grid_for(MERTON), MERTON)
    other = _grid_for(MERTON, n=256)
    with pytest.raises(PlanInvalidError, match="does not match"):
        apply_f(plan, synthetic_smooth_field(other, 1))


def test_two_dim_plan_on_x_only_field_matches_one_dim():
    # a field constant along one axis only feels the other axis's jumps; the
    # lattice holds the axis_x density on column 0 and axis_y on row 0, so
    # both axes are checked
    other = make_merton(0.2, 0.1, 0.15)
    g2 = make_grid(4.0, 128, reach=MERTON.shape.tail_radius(1, 1e-10), dim=2)
    g1 = make_grid(4.0, 128, reach=MERTON.shape.tail_radius(1, 1e-10), dim=1)
    assert g1.n_total == g2.n_total
    plan1 = build_plan(g1, MERTON)
    u1 = synthetic_smooth_field(g1, 3)
    out1 = apply_f(plan1, u1).values
    scale = max(np.max(np.abs(out1)), 1e-30)
    u2 = np.repeat(u1.values[:, None], g2.n_total, axis=1)
    for axis, pair in ((0, levy_pair(MERTON, other)),
                       (1, levy_pair(other, MERTON))):
        plan2 = build_plan(g2, pair)
        out2 = apply_f(plan2, GridField(g2, np.moveaxis(u2, 0, axis))).values
        out2 = np.moveaxis(out2, axis, 0)
        col = out2[:, g2.n_total // 2]
        assert np.max(np.abs(col - out1)) < 1e-8 * scale, axis
        # and constancy along the other axis is preserved
        assert np.max(np.abs(out2 - out2[:, :1])) < 1e-10 * scale, axis


@pytest.mark.parametrize("k", [(1, 0), (1, 2), (3, 1)])
def test_joint_two_dim_plan_on_plane_waves(k):
    # the box is 6 pi wide, so these k are exact lattice modes; the radial
    # measure has a real exponent and no outer-mean term, so f of
    # cos(k.x) and sin(k.x) is -levy_exponent(k) times the wave.  Measured
    # gap: at most 8.1e-14 relative to the exponent.
    m2 = make_merton(0.5, (0.0, 0.0), 0.2, dim=2)
    g = Grid(dim=2, half_width=2.0 * math.pi, n_core=128, pad=32)
    plan = build_plan(g, m2)
    assert plan.uses_fft
    psi = -levy_exponent(m2, k)
    x1, x2 = g.meshes()
    for wave in (np.cos, np.sin):
        u = GridField(g, wave(k[0] * x1 + k[1] * x2))
        gap = np.max(np.abs(apply_f(plan, u).values - psi.real * u.values))
        assert gap <= 2e-13 * abs(psi), wave.__name__


def test_f_bound_probe_ratios_and_domain():
    g = _grid_for(MERTON)
    plan = build_plan(g, MERTON)
    fields = [synthetic_smooth_field(g, i) for i in range(5)]
    rep = f_bound_probe(plan, fields, 0.75)
    assert rep.passed
    assert all(math.isfinite(r) and r > 0 for r in rep.ratios)
    with pytest.raises(ParameterDomainError):
        f_bound_probe(plan, fields, 0.4)
    # regularity below the singular-envelope floor is refused
    rough = make_exponential_tail(0.5, 2.5, 3.0)
    gr = _grid_for(rough)
    rough_plan = build_plan(gr, rough)
    with pytest.raises(ParameterDomainError):
        f_bound_probe(rough_plan, fields, 0.6)


# --- the precomputed quadrature band against the node-by-node sum ----------

def _node_shifts(plan, tau):
    """(w_j h_j, resolved shift on the grid axis) of every weighted node."""
    x = plan.grid.axis()
    return [(whj, xi_on_grid(plan.shift, tau, x, float(zj)))
            for zj, whj in zip(plan.z_nodes, plan.wh)]


def _per_node_sum(plan, values, du, shifts, compensator):
    """Reference quadrature operator: one cubic interpolation per node."""
    g = plan.grid
    x = g.axis()
    out = np.zeros_like(values)
    for whj, xi in shifts:
        shifted = cubic_interp_periodic(values, g.x_lo, g.dx, x + xi)
        comp = xi if compensator == "xi" else np.expm1(xi)
        out += whj * (shifted - values - comp * du)
    return out


def _per_node_delta(plan, tau):
    return sum(whj * (np.expm1(xi) - xi) for whj, xi in _node_shifts(plan, tau))


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


def _shifted_plan(strategy):
    """Merton plan with the strategy at rho = 0.05; None gives the identity
    shift on the quadrature path."""
    shift = ShiftModel(strategy, rho=0.05) if strategy is not None else None
    g = make_grid(4.0, 256, reach=estimate_reach(MERTON, shift, 4.0))
    return build_plan(g, MERTON, shift=shift,
                      force_quadrature=strategy is None)


def _check_band_matches_per_node_sum(plan, tau):
    u = synthetic_smooth_field(plan.grid, 3)
    du = gradient(u)[0]
    shifts = _node_shifts(plan, tau)
    for apply, compensator in ((apply_f, "xi"), (apply_f_tilde, "exp")):
        got = apply(plan, u, tau=tau).values
        want = _per_node_sum(plan, u.values, du, shifts, compensator)
        assert _rel_gap(got, want) <= 1e-13, compensator


@pytest.mark.parametrize("strategy", [
    strategy_tanh_ramp(0.3), strategy_sin(0.2, 1.5), strategy_linear(0.1),
    strategy_from_table([-2.0, 0.0, 2.0], [0.0, 0.2, 0.1]), None,
], ids=["tanh_ramp", "sin", "linear", "table", "identity_quadrature"])
def test_band_matches_per_node_sum(strategy):
    plan = _shifted_plan(strategy)
    assert not plan.uses_fft
    _check_band_matches_per_node_sum(plan, 0.3)


def test_static_band_is_built_once_per_plan(monkeypatch):
    builds = []
    real = jump_operator._build_band

    def counting(plan, tau):
        builds.append(tau)
        return real(plan, tau)

    monkeypatch.setattr(jump_operator, "_build_band", counting)
    plan = _shifted_plan(strategy_tanh_ramp(0.3))
    u = synthetic_smooth_field(plan.grid, 1)
    for tau in (0.0, 0.5, 1.0):
        apply_f(plan, u, tau=tau)
        delta_on_plan_nodes(plan, tau)
    assert len(builds) == 1
    assert plan.stats["operator_build_s"] > 0.0


def test_time_dependent_strategy_rebuilds_the_band_per_tau():
    ramp = strategy_tanh_ramp(0.3)
    growing = TradingStrategy(lambda tau, x: (1.0 + tau) * ramp.psi(tau, x),
                              1.0, 0.6, time_dependent=True)
    plan = _shifted_plan(growing)
    u = synthetic_smooth_field(plan.grid, 5)
    early = apply_f(plan, u, tau=0.0).values
    late = apply_f(plan, u, tau=1.0).values
    assert _rel_gap(early, late) > 1e-4
    for tau in (0.0, 1.0):
        _check_band_matches_per_node_sum(plan, tau)


def test_delta_on_plan_nodes_matches_per_node_delta():
    plan = _shifted_plan(strategy_tanh_ramp(0.3))
    got = delta_on_plan_nodes(plan, 0.0)
    want = _per_node_delta(plan, 0.0)
    assert np.ptp(want) > 0.0
    assert _rel_gap(got, want) <= 1e-12


@pytest.mark.parametrize("amplitude", [-0.3, 0.3],
                         ids=["decreasing", "increasing"])
def test_delta_on_plan_nodes_matches_adaptive_compute_delta(amplitude):
    # compute_delta integrates (e^xi - 1 - xi) h over the line by adaptive
    # quadrature, resolving each shift pointwise: a reference that shares
    # neither the plan's nodes nor its outer cutoff.  Measured gaps: at most
    # 3.5e-12 relative with either ramp at x = -2, -0.5, 0, 2, and 1.5e-16
    # for the identity plan's lattice moment.
    plan = _shifted_plan(strategy_tanh_ramp(amplitude))
    x = plan.grid.axis()
    got = delta_on_plan_nodes(plan, 0.0)
    for i in np.searchsorted(x, [-2.0, -0.5, 0.0, 2.0]):
        want = compute_delta(plan.shift, MERTON, 0.0, float(x[i]))
        assert abs(got[i] - want) <= 1e-11 * abs(want)
    identity = build_plan(plan.grid, MERTON)
    want = compute_delta(None, MERTON, 0.0, 0.0)
    assert abs(identity.delta0 - want) <= 1e-14 * abs(want)


def test_resolved_reach_beyond_the_padding_is_out_of_domain():
    plan = _shifted_plan(strategy_tanh_ramp(0.3))
    tight = make_grid(4.0, 256, reach=0.5)
    # the plan was checked against its own wide grid, so only the resolved
    # shifts can reveal the overreach
    narrowed = dataclasses.replace(plan, grid=tight)
    u = synthetic_smooth_field(tight, 2)
    with pytest.raises(OutOfDomainError, match="resolved shift reach"):
        apply_f(narrowed, u)
    with pytest.raises(OutOfDomainError, match="resolved shift reach"):
        delta_on_plan_nodes(narrowed, 0.0)


@pytest.mark.parametrize("measure,strategy", [
    (MERTON, None), (KOU, None), (make_exponential_tail(1.0, 0.5, 3.0), None),
    (MERTON, strategy_tanh_ramp(0.3)), (MERTON, strategy_sin(0.2, 1.5)),
    (MERTON, strategy_linear(0.1)),
    (MERTON, strategy_from_table([-2.0, 0.0, 2.0], [0.0, 0.2, 0.1])),
], ids=["merton", "kou", "exptail_alpha_0.5", "tanh_ramp", "sin", "linear",
        "table"])
def test_live_window_matches_full_f_tilde_fn(measure, strategy):
    shift = ShiftModel(strategy, rho=0.05) if strategy is not None else None
    g = make_grid(4.0, 256, reach=estimate_reach(measure, shift, 4.0))
    plan = build_plan(g, measure, shift)
    nodes = plan.wh.size
    # the put profile, as the solver's source uses: its affine side carries
    # no e^x growth, so the full sum's rounding there stays small
    bs = BlackScholesClosedForm(100.0, 0.05, 0.2, "put")
    for tau in (1e-4, 0.002, 0.05, 0.5, 1.0):
        fn, dfn = (lambda p: bs.u(tau, p)), (lambda p: bs.du_dx(tau, p))
        before = plan.stats["source_pairs"]
        want = apply_f_tilde_fn(plan, fn, dfn, tau)
        full_pairs = plan.stats["source_pairs"] - before
        got = apply_f_tilde_fn(plan, fn, dfn, tau, bs.live_interval(tau))
        pairs = plan.stats["source_pairs"] - before - full_pairs
        assert _rel_gap(got, want) <= 1e-13, tau
        assert full_pairs == nodes * g.n_total
        assert pairs < 0.6 * full_pairs, tau
