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
    [grid]        half_width, n_core, reach
    [scheme]      scheme, dt, cross_check, cross_check_tol
    [assertions]  oracle_rel_tol, order_lo, order_hi

[market] and its keys are required, option_type (call or put) aside.
jumps.family is none (default), merton (intensity_per_year, jump_mean,
jump_std), kou (intensity_per_year, p_up, eta_up, eta_down) or
exponential_tail (c0, alpha, decay).  shift.rho = 0 (default) disables the
shift; shift.strategy is zero, linear, sin or tanh_ramp (default), with
amplitude plus center and width (tanh_ramp) or frequency (sin).  Absent,
grid.reach is sized automatically; every other key has a default.

Missing or malformed keys, unknown keys and unknown sections raise
ConfigError naming the dotted key path, as do a negative grid.reach and an
unknown shift.strategy (also when rho = 0).
"""
from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from .errors import ConfigError
from .measures import LevyMeasure, make_exponential_tail, make_kou, make_merton
from .pricing import MarketSpec
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
    reach: float | None
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
    "grid": ("half_width", "n_core", "reach"),
    "scheme": ("scheme", "dt", "cross_check", "cross_check_tol"),
    "assertions": ("oracle_rel_tol", "order_lo", "order_hi"),
}
STRATEGIES = ("zero", "linear", "sin", "tanh_ramp")


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
    """One INI section with typed, path-naming accessors; a key without a
    default is required."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.present = parser.has_section(name)
        self._sec = parser[name] if self.present else {}

    def _fetch(self, key: str, cast, default):
        path = f"{self.name}.{key}"
        if key not in self._sec:
            if default is not _REQUIRED:
                return default
            raise ConfigError(f"missing key {path}", key=path)
        raw = self._sec[key]
        try:
            if cast is bool:
                low = raw.strip().lower()
                if low in ("true", "yes", "1", "on"):
                    return True
                if low in ("false", "no", "0", "off"):
                    return False
                raise ValueError(raw)
            return cast(raw)
        except ValueError:
            raise ConfigError(
                f"key {path} has malformed value {raw!r}", key=path) from None

    def number(self, key, default=_REQUIRED):
        return self._fetch(key, float, default)

    def integer(self, key, default=_REQUIRED):
        return self._fetch(key, int, default)

    def text(self, key, default=_REQUIRED):
        return self._fetch(key, str, default)

    def flag(self, key, default=False):
        return self._fetch(key, bool, default)


def _build_measure(sec: _Section):
    family = sec.text("family", "none").lower() if sec.present else "none"
    if family == "none":
        return "none", None, None
    if family == "merton":
        params = (sec.number("intensity_per_year"), sec.number("jump_mean"),
                  sec.number("jump_std"))
        return family, make_merton(*params), params
    if family == "kou":
        return family, make_kou(sec.number("intensity_per_year"),
                                sec.number("p_up"), sec.number("eta_up"),
                                sec.number("eta_down")), None
    if family == "exponential_tail":
        return family, make_exponential_tail(sec.number("c0"),
                                             sec.number("alpha"),
                                             sec.number("decay")), None
    raise ConfigError(f"unknown jump family {family!r} in jumps.family",
                      key="jumps.family")


def _build_shift(sec: _Section):
    if not sec.present:
        return None
    rho = sec.number("rho", 0.0)
    name = sec.text("strategy", "tanh_ramp").lower()
    if name not in STRATEGIES:
        raise ConfigError(f"unknown strategy {name!r} in shift.strategy",
                          key="shift.strategy")
    if rho == 0.0:
        return None
    amplitude = sec.number("amplitude", 0.3)
    if name == "zero":
        strategy = strategy_zero()
    elif name == "linear":
        strategy = strategy_linear(amplitude)
    elif name == "sin":
        strategy = strategy_sin(amplitude, sec.number("frequency", 1.0))
    else:
        strategy = strategy_tanh_ramp(amplitude, sec.number("center", 0.0),
                                      sec.number("width", 1.0))
    return ShiftModel(strategy, rho=rho)


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

    market_sec = _Section(parser, "market")
    if not market_sec.present:
        raise ConfigError("missing section [market]", key="market")
    market = MarketSpec(
        S0=market_sec.number("spot"),
        K=market_sec.number("strike"),
        T=market_sec.number("maturity_years"),
        r=market_sec.number("rate_per_year"),
        sigma=market_sec.number("volatility"),
        option_type=market_sec.text("option_type", "call"),
    )

    family, measure, merton_params = _build_measure(_Section(parser, "jumps"))
    shift = _build_shift(_Section(parser, "shift"))

    grid_sec = _Section(parser, "grid")
    half_width = grid_sec.number("half_width", 6.0)
    n_core = grid_sec.integer("n_core", 1024)
    reach = grid_sec.number("reach", None)
    if n_core < 16 or n_core % 2:
        raise ConfigError("grid.n_core must be an even integer >= 16",
                          key="grid.n_core")
    if reach is not None and not reach >= 0.0:
        raise ConfigError("grid.reach must be a nonnegative number",
                          key="grid.reach")

    scheme_sec = _Section(parser, "scheme")
    scheme = SchemeConfig(
        scheme=scheme_sec.text("scheme", "imex_bdf2"),
        dt=scheme_sec.number("dt", market.T / 500.0),
        cross_check=scheme_sec.flag("cross_check", False),
        cross_check_tol=scheme_sec.number("cross_check_tol", 1e-3),
    )

    asrt = _Section(parser, "assertions")
    return RunConfig(
        market=market, jump_family=family, measure=measure,
        merton_params=merton_params, shift=shift, half_width=half_width,
        n_core=n_core, reach=reach, scheme=scheme,
        oracle_rel_tol=asrt.number("oracle_rel_tol", 1e-3),
        order_lo=asrt.number("order_lo", 1.5),
        order_hi=asrt.number("order_hi", 2.8),
        digest=config_digest(raw_bytes),
    )
