"""Spectral/quadrature solver for European option pricing under jump
processes with an optional large-trader feedback shift, plus the fractional
regularity toolkit used to monitor it."""

__version__ = "0.1.0"

from .bessel import (BesselKernel, FractionalNorm, kernel_eval,
                     modulus_of_continuity_probe, q_estimate_probe)
from .blackscholes import BlackScholesClosedForm
from .errors import (BlowUpError, ConfigError, LevyPideError, NoSolutionError,
                     OutOfDomainError, ParameterDomainError, PlanInvalidError,
                     SingularityError, StabilityError, ToleranceNotMetError,
                     UnsupportedConfigurationError)
from .grids import Grid, GridField, gradient, make_grid
from .jump_operator import (OperatorPlan, apply_f, apply_f_tilde_fn,
                            build_plan, f_bound_probe, reference_symbol)
from .measures import (AxisJumpPair, LevyMeasure, ShapeParams,
                       check_admissibility, levy_pair, make_exponential_tail,
                       make_kou, make_merton, moments)
from .pricing import (MarketSpec, PriceResult, bs_closed_form,
                      merton_series_oracle, price_european, report_price,
                      transform_to_pide)
from .shift import (ShiftModel, TradingStrategy, compute_delta,
                    growth_bound_probe, resolve_xi, resolve_xi_first_order,
                    resolve_H, strategy_from_table, strategy_linear,
                    strategy_sin, strategy_tanh_ramp, strategy_zero)
from .solver import (CauchyProblem, SchemeConfig, SolveResult, duhamel_gap,
                     heat_semigroup, singular_source_decay_probe,
                     solve_direct, solve_shifted)
from .config import RunConfig, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
