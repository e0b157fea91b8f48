"""The public names resolve, and the settable values that were removed stay
removed.

A stale `__all__` entry fails here rather than on a user's star import.
"""
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import levypide
from levypide import solver
from levypide.bessel import (_l1_shift_difference, modulus_of_continuity_probe,
                             synthetic_smooth_field)
from levypide.config import RunConfig
from levypide.grids import Grid, GridField, make_grid
from levypide.jump_operator import (OperatorPlan, _Band, apply_f_tilde_fn,
                                    build_plan, reference_symbol)
from levypide.measures import (AxisJumpPair, LevyMeasure, MeasureMoments,
                               exp_moment_cutoff, levy_exponent, make_merton,
                               moments)
from levypide.pricing import (PriceResult, estimate_reach, merton_series_oracle,
                              price_european, transform_to_pide)
from levypide.quadrature import (adaptive_quad, gauss_legendre_panels,
                                 quad_left_unit, quad_line)
from levypide.shift import ShiftModel, TradingStrategy, compute_delta
from levypide.solver import (CauchyProblem, SchemeConfig, SolveResult,
                             build_time_mesh, duhamel_gap, solve_direct,
                             solve_shifted)

MODULES = sorted(f"levypide.{m.name}"
                 for m in pkgutil.iter_modules(levypide.__path__))


@pytest.mark.parametrize("module_name", ["levypide", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name,name", [
    ("levypide.measures", "truncated_mass"),
    ("levypide.shift", "resolve_xi_fixed_point"),
    ("levypide.quadrature", "quad_full_line"),
    ("levypide.quadrature", "quad_half_line"),
    ("levypide.measures", "_polar_integral"),
    ("levypide.shift", "_w_residual_fn"),
    ("levypide.jump_operator", "_BandCache"),
    ("levypide.jump_operator", "_grad_values"),
    ("levypide.shift", "_bisect_vec"),
    ("levypide.shift", "GrowthReport"),
    ("levypide.shift", "_LOG_FLOOR"),
    ("levypide.quadrature", "tanh_sinh_rule"),
    ("levypide.quadrature", "panel_quad"),
    ("levypide.quadrature", "panels_quad"),
    ("levypide.solver", "step_imex"),
    ("levypide.solver", "step_mild"),
    ("levypide.solver", "_step"),
    ("levypide.solver", "_replace_scheme"),
    ("levypide.jump_operator", "apply_f_tilde"),
    ("levypide.bessel", "xgamma_norm"),
    ("levypide.measures", "make_custom"),
    ("levypide.jump_operator", "_identity_shifts"),
    ("levypide.cli", "_seedless_guard"),
])
def test_removed_functions_are_gone(module_name, name):
    module = importlib.import_module(module_name)
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())
    assert name not in levypide.__all__


@pytest.mark.parametrize("owner,removed", [
    (CauchyProblem, {"delta_sign"}),
    (RunConfig, {"delta_sign"}),
    (ShiftModel, {"mode", "fp_max_iter", "fp_tol"}),
    (SchemeConfig, {"startup_fraction", "startup_density", "startup_grading"}),
    (OperatorPlan, {"reach", "small_jump_policy", "eps_in", "exp_mean",
                    "force_quadrature", "z_weights", "z_density", "nu_mass",
                    "fft_mass", "fft_mean", "fft_exp_mean",
                    "bounded_multiplier"}),
    (MeasureMoments, {"first_abs_moment_near_0"}),
    (LevyMeasure, {"family_tag", "params"}),
    (TradingStrategy, {"name"}),
    (GridField, {"zeros", "core"}),
    (Grid, {"core_slice"}),
    (OperatorPlan, {"band_build_s", "shift_fallback_points"}),
    (_Band, {"fallback_points"}),
    (SolveResult, {"scheme", "plan", "background", "difference"}),
    (PriceResult, {"market"}),
    (RunConfig, {"raw"}),
    (SchemeConfig, {"stability_limit"}),
    (LevyMeasure, {"radial_profile", "product_factors"}),
    (OperatorPlan, {"r_out"}),
    (SolveResult, {"cross_check_gap"}),
    (Grid, {"length"}),
    (RunConfig, {"reach"}),
    (CauchyProblem, {"_step_plan", "dim"}),
    (OperatorPlan, {"dim"}),
    (SolveResult, {"trajectory"}),
    (_Band, {"wh"}),
    (OperatorPlan, {"uses_fft"}),
    (SchemeConfig, {"checkpoint_count"}),
    (RunConfig, {"order_lo", "order_hi"}),
])
def test_removed_fields_are_gone(owner, removed):
    assert not removed & {f.name for f in dataclasses.fields(owner)}
    # methods are no dataclass fields, so look for the attributes too
    assert not [name for name in removed if hasattr(owner, name)]


@pytest.mark.parametrize("fn,removed", [
    (transform_to_pide, {"delta_sign"}),
    (price_european, {"delta_sign"}),
    (build_plan, {"small_jump_policy", "eps_in", "r_out", "tail_tol",
                  "tau_probe"}),
    (make_grid, {"stencil_margin"}),
    (estimate_reach, {"tail_tol"}),
    (modulus_of_continuity_probe, {"spread_limit"}),
    (_l1_shift_difference, {"n_panel"}),
    (apply_f_tilde_fn, {"counts"}),
    (solve_shifted, {"store_stride"}),
    (duhamel_gap, {"checkpoints", "shifted"}),
    (build_time_mesh, {"fraction", "density"}),
    (exp_moment_cutoff, {"log_floor"}),
    (adaptive_quad, {"limit"}),
    (quad_left_unit, {"abs_tol", "rel_tol"}),
    (quad_line, {"rel_tol"}),
    (reference_symbol, {"rel_tol"}),
    (synthetic_smooth_field, {"amplitude"}),
    (levy_exponent, {"diffusion", "drift", "tol"}),
    (solver._march, {"history", "store_stride"}),
    (solve_direct, {"store_stride"}),
    (solver._run, {"store_stride"}),
    (duhamel_gap, {"result"}),
    (build_plan, {"nodes_per_panel"}),
    (gauss_legendre_panels, {"nodes_per_panel"}),
    (moments, {"tol"}),
    (compute_delta, {"tol"}),
    (merton_series_oracle, {"terms"}),
    (build_plan, {"force_quadrature"}),
])
def test_removed_parameters_are_gone(fn, removed):
    assert not removed & set(inspect.signature(fn).parameters)


def test_an_axis_pair_is_two_dimensional():
    # dim is a read-only property, not an init field
    nu = make_merton(0.5, -0.1, 0.2)
    assert "dim" not in {f.name for f in dataclasses.fields(AxisJumpPair)}
    assert AxisJumpPair(nu, nu).dim == 2
    with pytest.raises(TypeError):
        AxisJumpPair(nu, nu, dim=1)


def test_a_measure_is_not_callable():
    # the density is read as measure.density, its one way in
    assert "__call__" not in vars(LevyMeasure)
    assert not callable(make_merton(0.5, -0.1, 0.2))
