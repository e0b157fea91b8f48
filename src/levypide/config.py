"""Run configuration: flat INI sections, validated into model objects.

Key names carry their units (rates per year, times in years) so a config
file reads unambiguously and reproduces bit-identically: the raw bytes are
hashed into a digest that stamps every artifact derived from the run.

Sections and keys:

    [market]      spot, strike, maturity_years, rate_per_year, volatility,
                  option_type
    [jumps]       family, intensity_per_year, jump_mean, jump_std, p_up,
                  eta_up, eta_down, c0, alpha, decay
    [shift]       rho, strategy, amplitude, center, width, frequency
    [grid]        half_width, n_core
    [scheme]      scheme, dt, cross_check, cross_check_tol
    [assertions]  oracle_rel_tol, order_lo, order_hi

[market] and its keys are required, option_type (call or put) aside.
jumps.family is none (default) or a FAMILIES entry: merton
(intensity_per_year, jump_mean, jump_std), kou (intensity_per_year, p_up,
eta_up, eta_down) or exponential_tail (c0, alpha, decay).  shift.strategy is
a STRATEGIES entry: zero, linear (amplitude), sin (amplitude, frequency) or
tanh_ramp (default; amplitude, center, width); shift.rho = 0 (default)
disables the shift.  grid.half_width and grid.n_core set the core window and
its cells; the padding around it is sized from the jumps and the shift.
scheme.dt defaults to maturity_years / pricing.DEFAULT_STEPS; every other
key has a default.

One rule checks the values: each section goes into the object that owns
its domain ([market] MarketSpec, [jumps] the family factory and its
tail-radius search, [shift] the strategy factory and ShiftModel, [grid] the
core Grid, so n_core is even and at least 8, [scheme] SchemeConfig), whose
ParameterDomainError becomes a ConfigError naming the key the builder read
the value from, or the section alone for a derived value (an overflowing
Merton c0 or e^z moment names [jumps]).  Values are read by configparser's
getfloat, getint and getboolean (1/yes/true/on, 0/no/false/off).  Missing
or malformed keys and unknown keys, sections, families and strategies (also
when rho = 0) name their dotted path.  [assertions] builds no object and
is checked here: oracle_rel_tol >= 0, order_lo and order_hi finite,
order_lo <= order_hi.
"""
from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

from .errors import ConfigError, ParameterDomainError
from .grids import Grid
from .measures import LevyMeasure, make_exponential_tail, make_kou, make_merton
from .pricing import DEFAULT_STEPS, MarketSpec
from .shift import (ShiftModel, strategy_linear, strategy_sin,
                    strategy_tanh_ramp, strategy_zero)
from .solver import SchemeConfig

__all__ = ["RunConfig", "load_config", "config_digest"]


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    market: MarketSpec
    jump_family: str
    measure: LevyMeasure | None
    merton_params: tuple | None
    shift: ShiftModel | None
    half_width: float
    n_core: int
    scheme: SchemeConfig
    oracle_rel_tol: float
    order_lo: float
    order_hi: float
    digest: str


# Every key each section may hold; see the module docstring.
KEYS = {
    "market": ("spot", "strike", "maturity_years", "rate_per_year",
               "volatility", "option_type"),
    "jumps": ("family", "intensity_per_year", "jump_mean", "jump_std", "p_up",
              "eta_up", "eta_down", "c0", "alpha", "decay"),
    "shift": ("rho", "strategy", "amplitude", "center", "width", "frequency"),
    "grid": ("half_width", "n_core"),
    "scheme": ("scheme", "dt", "cross_check", "cross_check_tol"),
    "assertions": ("oracle_rel_tol", "order_lo", "order_hi"),
}


def config_digest(raw_bytes: bytes) -> str:
    return hashlib.sha256(raw_bytes).hexdigest()


def _check_keys(parser: configparser.ConfigParser) -> None:
    """Reject any section or key outside KEYS, which would be ignored."""
    for name in parser.sections():
        if name not in KEYS:
            raise ConfigError(f"unknown section [{name}]", key=name)
        for key in parser[name]:
            if key not in KEYS[name]:
                path = f"{name}.{key}"
                raise ConfigError(f"unknown key {path}", key=path)


_REQUIRED = object()


class _Section:
    """One INI section with typed, path-naming accessors (configparser's own
    getters); a key without a default is required."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.present = parser.has_section(name)
        self._sec = parser[name] if self.present else {}

    def _fetch(self, key: str, getter: str, default):
        path = f"{self.name}.{key}"
        if key not in self._sec:
            if default is not _REQUIRED:
                return default
            raise ConfigError(f"missing key {path}", key=path)
        try:
            return getattr(self._sec, getter)(key)
        except ValueError:
            raise ConfigError(f"key {path} has malformed value "
                              f"{self._sec[key]!r}", key=path) from None

    def number(self, key, default=_REQUIRED):
        return self._fetch(key, "getfloat", default)

    def integer(self, key, default=_REQUIRED):
        return self._fetch(key, "getint", default)

    def text(self, key, default=_REQUIRED):
        return self._fetch(key, "get", default)

    def flag(self, key, default=False):
        return self._fetch(key, "getboolean", default)


# Each jump family's and strategy's factory, with the keys of its arguments
# in order (and, for a strategy, their defaults).
FAMILIES = {
    "merton": (make_merton, ("intensity_per_year", "jump_mean", "jump_std")),
    "kou": (make_kou, ("intensity_per_year", "p_up", "eta_up", "eta_down")),
    "exponential_tail": (make_exponential_tail, ("c0", "alpha", "decay")),
}
STRATEGIES = {
    "zero": (strategy_zero, {}),
    "linear": (strategy_linear, {"amplitude": 0.3}),
    "sin": (strategy_sin, {"amplitude": 0.3, "frequency": 1.0}),
    "tanh_ramp": (strategy_tanh_ramp,
                  {"amplitude": 0.3, "center": 0.0, "width": 1.0}),
}
# The key of each builder argument whose name differs from it; a builder's
# ParameterDomainError message starts with the argument's name.
_ARG_KEYS = {"maturity": "maturity_years", "rate": "rate_per_year",
             "intensity": "intensity_per_year", "eta_plus": "eta_up",
             "eta_minus": "eta_down", "slope": "amplitude"}


def _build(section: str, keys, build):
    """build(), which reads the keys of the section into the object owning
    their domain, with its ParameterDomainError as a ConfigError naming the
    key the message starts with, or the section alone for any other."""
    try:
        return build()
    except ParameterDomainError as exc:
        name = str(exc).split()[0]
        key = _ARG_KEYS.get(name, name)
        raise ConfigError(str(exc), key=f"{section}.{key}" if key in keys
                          else section) from None


def _build_measure(sec: _Section):
    family = sec.text("family", "none").lower()
    if family == "none":
        return "none", None, None
    if family not in FAMILIES:
        raise ConfigError(f"unknown jump family {family!r} in jumps.family",
                          key="jumps.family")
    factory, keys = FAMILIES[family]
    params = tuple(sec.number(key) for key in keys)
    measure = _build("jumps", keys, lambda: factory(*params))
    # the tail-radius search is the envelope's last check, run before a grid
    _build("jumps", (), lambda: measure.jump_radius)
    return family, measure, params if family == "merton" else None


def _build_shift(sec: _Section):
    name = sec.text("strategy", "tanh_ramp").lower()
    if name not in STRATEGIES:
        raise ConfigError(f"unknown strategy {name!r} in shift.strategy",
                          key="shift.strategy")
    factory, defaults = STRATEGIES[name]
    strategy = _build("shift", defaults, lambda: factory(
        *(sec.number(key, default) for key, default in defaults.items())))
    shift = _build("shift", ("rho",),
                   lambda: ShiftModel(strategy, rho=sec.number("rho", 0.0)))
    return shift if shift.rho > 0.0 else None


def load_config(path: str) -> RunConfig:
    """Read, hash, and validate one INI file into a RunConfig."""
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
    except OSError as exc:
        raise ConfigError(f"config not readable: {exc}", key=str(path)) from None
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(raw_bytes.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config not parseable: {exc}", key=path) from None
    _check_keys(parser)

    sec = _Section(parser, "market")
    if not sec.present:
        raise ConfigError("missing section [market]", key="market")
    market = _build("market", KEYS["market"], lambda: MarketSpec(
        *(sec.number(key) for key in KEYS["market"][:-1]),
        sec.text("option_type", "call")))

    family, measure, merton_params = _build_measure(_Section(parser, "jumps"))
    shift = _build_shift(_Section(parser, "shift"))

    sec = _Section(parser, "grid")
    grid = _build("grid", KEYS["grid"], lambda: Grid(
        1, sec.number("half_width", 6.0), sec.integer("n_core", 1024)))

    sec = _Section(parser, "scheme")
    scheme = _build("scheme", KEYS["scheme"], lambda: SchemeConfig(
        scheme=sec.text("scheme", "imex_bdf2"),
        dt=sec.number("dt", market.T / DEFAULT_STEPS),
        cross_check=sec.flag("cross_check", False),
        cross_check_tol=sec.number("cross_check_tol", 1e-3)))

    sec = _Section(parser, "assertions")
    oracle_rel_tol = sec.number("oracle_rel_tol", 1e-3)
    order_lo = sec.number("order_lo", 1.5)
    order_hi = sec.number("order_hi", 2.8)
    if not oracle_rel_tol >= 0.0:
        raise ConfigError("assertions.oracle_rel_tol must be a nonnegative "
                          "number", key="assertions.oracle_rel_tol")
    for key, value in (("order_lo", order_lo), ("order_hi", order_hi)):
        if not math.isfinite(value):
            raise ConfigError(f"assertions.{key} must be a finite number",
                              key=f"assertions.{key}")
    if order_lo > order_hi:
        raise ConfigError("assertions.order_lo exceeds assertions.order_hi",
                          key="assertions.order_lo")
    return RunConfig(
        market=market, jump_family=family, measure=measure,
        merton_params=merton_params, shift=shift, half_width=grid.half_width,
        n_core=grid.n_core, scheme=scheme, oracle_rel_tol=oracle_rel_tol,
        order_lo=order_lo, order_hi=order_hi, digest=config_digest(raw_bytes))
