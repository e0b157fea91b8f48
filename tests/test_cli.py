import csv
import dataclasses
import importlib.util
import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from levypide import cli, config, solver
from levypide.cli import main
from levypide.config import load_config
from levypide.errors import ConfigError
from levypide.grids import make_grid
from levypide.measures import ShapeParams
from levypide.pricing import bs_closed_form, estimate_reach

MERTON_CFG = """\
[market]
spot = 100.0
strike = 100.0
maturity_years = 1.0
rate_per_year = 0.05
volatility = 0.2
option_type = call

[jumps]
family = merton
intensity_per_year = 0.5
jump_mean = -0.1
jump_std = 0.2

[grid]
half_width = 6.0
n_core = 512

[scheme]
scheme = imex_bdf2
dt = 0.04
"""

SHIFT_CFG = """\
[market]
spot = 100.0
strike = 100.0
maturity_years = 1.0
rate_per_year = 0.05
volatility = 0.2

[jumps]
family = merton
intensity_per_year = 0.5
jump_mean = -0.1
jump_std = 0.2

[shift]
rho = 0.05
strategy = tanh_ramp
amplitude = 0.3
width = 1.0

[grid]
half_width = 6.0
n_core = 512

[scheme]
dt = 0.04
"""


ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.cfg"))


# numpy's random draw functions, which no subcommand may call
RNG_NAMES = ("random", "rand", "randn", "normal", "uniform", "randint",
             "choice", "standard_normal", "default_rng", "seed")


class RandomDraw(AssertionError):
    pass


@pytest.fixture
def no_rng(monkeypatch):
    """Make every random draw raise RandomDraw for the test's duration."""
    def trip(*_a, **_k):
        raise RandomDraw("a run drew random numbers")

    for name in RNG_NAMES:
        monkeypatch.setattr(np.random, name, trip)


def test_the_rng_tripwire_trips(no_rng):
    for name in RNG_NAMES:
        with pytest.raises(RandomDraw):
            getattr(np.random, name)(3)


@pytest.fixture
def solves(monkeypatch):
    """The arguments of each solve_shifted call the CLI makes."""
    calls = []
    real = cli.solve_shifted
    monkeypatch.setattr(cli, "solve_shifted",
                        lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.fixture
def untagged(monkeypatch):
    """Build the config's Merton measure without its family tag, so that
    its identity-shift solve sums the source over the plan's nodes."""
    factory, keys = config.FAMILIES["merton"]
    monkeypatch.setitem(config.FAMILIES, "merton", (
        lambda *args: dataclasses.replace(factory(*args), family=None), keys))


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_rows(path):
    with open(path) as fh:
        comment = fh.readline()
        rows = list(csv.reader(fh))
    return comment, rows[0], rows[1:]


def test_load_config_names_missing_key(tmp_path):
    broken = MERTON_CFG.replace("volatility = 0.2\n", "")
    path = _write(tmp_path, broken)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "market.volatility" in str(err.value)


def test_load_config_rejects_malformed_value(tmp_path):
    broken = MERTON_CFG.replace("dt = 0.04", "dt = fast")
    path = _write(tmp_path, broken)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "scheme.dt" in str(err.value)


@pytest.mark.parametrize("old,new,key", [
    ("dt = 0.04", "dt = 0.04\ndelta_sign = 1", "scheme.delta_sign"),
    ("width = 1.0", "width = 1.0\nmode = first_order", "shift.mode"),
    ("volatility = 0.2", "volatilty = 0.2\nvolatility = 0.2",
     "market.volatilty"),
    ("[grid]", "[grids]", "grids"),
    ("width = 1.0", "width = 1.0\nfp_tol = 1e-12", "shift.fp_tol"),
    ("dt = 0.04", "dt = 0.04\nstartup_grading = true", "scheme.startup_grading"),
    ("dt = 0.04", "dt = 0.04\nmonitor_gamma = 0.5", "scheme.monitor_gamma"),
    # grid.reach is gone: the padding is always sized from the jumps and the
    # shift, so any reach, usable or not, is an unknown key
    ("n_core = 512", "n_core = 512\nreach = -3.0", "grid.reach"),
    ("n_core = 512", "n_core = 512\nreach = nan", "grid.reach"),
    ("n_core = 512", "n_core = 512\nreach = 3.0", "grid.reach"),
    # a strategy name that rho = 0 would otherwise never look at
    ("rho = 0.05\nstrategy = tanh_ramp", "rho = 0.0\nstrategy = bogus",
     "shift.strategy"),
])
def test_unknown_keys_and_sections_exit_2_naming_them(tmp_path, capsys, old,
                                                      new, key):
    # a key nothing reads, or a value nothing checks, would otherwise be
    # silently ignored
    path = _write(tmp_path, SHIFT_CFG.replace(old, new, 1))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == key
    capsys.readouterr()
    assert main(["--config", path, "--out", str(tmp_path / "out"),
                 "price"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("value,want", [("off", False), ("yes", True)])
def test_cross_check_reads_configparsers_boolean_words(tmp_path, value, want):
    path = _write(tmp_path, MERTON_CFG + f"cross_check = {value}\n")
    assert load_config(path).scheme.cross_check is want


@pytest.mark.parametrize("text,key", [
    (MERTON_CFG.replace("dt = 0.04", "dt = 0.04\ncross_check = maybe"),
     "scheme.cross_check"),
    (MERTON_CFG.replace("family = merton", "family = levy"), "jumps.family"),
    ("[jumps]" + MERTON_CFG.split("[jumps]")[1], "market"),
], ids=["not_a_boolean", "unknown_family", "no_market_section"])
def test_bad_words_and_a_missing_market_exit_2_naming_them(tmp_path, capsys,
                                                           text, key):
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == key
    assert main(["--config", path, "--out", str(tmp_path / "out"),
                 "price"]) == 2
    assert f"[{key}]" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    MERTON_CFG.replace("dt = 0.04", "dt = 0.04\nfast"),
    MERTON_CFG.replace("dt = 0.04", "dt = 0.04\ndt = 0.02"),
    MERTON_CFG + "\n[grid]\nn_core = 256\n",
    MERTON_CFG.split("\n", 1)[1],
], ids=["line_without_equals", "duplicate_key", "duplicate_section",
        "no_section_header"])
def test_unparseable_config_exits_2(tmp_path, capsys, text):
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match="config not parseable"):
        load_config(path)
    assert main(["--config", path, "--out", str(tmp_path / "out"),
                 "price"]) == 2
    assert "config not parseable" in capsys.readouterr().err


def test_spot_outside_the_core_window_exits_2(tmp_path, capsys, solves):
    # ln(100 / 0.1) = 6.91 lies past half_width = 6, where the price would
    # be read from the padding; the window is checked before any solve
    path = _write(tmp_path, MERTON_CFG.replace("strike = 100.0",
                                               "strike = 0.1"))
    for command in (["price"], ["convergence-study", "--halvings", "2"]):
        assert main(["--config", path, "--out", str(tmp_path / "out"),
                     *command]) == 2
        err = capsys.readouterr().err
        assert "OutOfDomainError" in err and "ln(S0/K) = 6.90776" in err
    assert solves == []


MERTON_JUMPS = "family = merton\nintensity_per_year = 0.5\njump_mean = -0.1\n" \
    "jump_std = 0.2"
TAIL_JUMPS = "family = exponential_tail\nc0 = 1.0\nalpha = 0.5\ndecay = 3.0"
# (demo, old, new, the key or section the ConfigError names); the ids keep
# the demo-old-new form
NON_FINITE = [
    # a NaN tolerance passes every cross-check: gap > nan is False
    ("kou_put.cfg", "cross_check_tol = 1e-3", "cross_check_tol = nan",
     "scheme.cross_check_tol"),
    ("kou_put.cfg", "cross_check_tol = 1e-3", "cross_check_tol = -1e-3",
     "scheme.cross_check_tol"),
    ("kou_put.cfg", "dt = 0.01", "dt = nan", "scheme.dt"),
    ("kou_put.cfg", "dt = 0.01", "dt = inf", "scheme.dt"),
    ("kou_put.cfg", "maturity_years = 0.5", "maturity_years = nan",
     "market.maturity_years"),
    ("kou_put.cfg", "maturity_years = 0.5", "maturity_years = inf",
     "market.maturity_years"),
    ("kou_put.cfg", "half_width = 6.0", "half_width = nan", "grid.half_width"),
    ("kou_put.cfg", "half_width = 6.0", "half_width = inf", "grid.half_width"),
    ("merton_call.cfg", "volatility = 0.2", "volatility = nan",
     "market.volatility"),
    ("merton_call.cfg", "volatility = 0.2", "volatility = inf",
     "market.volatility"),
    ("merton_call.cfg", "rate_per_year = 0.05", "rate_per_year = nan",
     "market.rate_per_year"),
    ("merton_call.cfg", "rate_per_year = 0.05", "rate_per_year = inf",
     "market.rate_per_year"),
    # finite but extreme: each used to end in a traceback (exit 1) once the
    # arithmetic overflowed or underflowed, the last one after the grid and
    # the plan were built.  A value the builder derives names the section:
    # these two overflow the Merton envelope constant c0, which no key holds
    ("merton_call.cfg", "jump_mean = -0.1", "jump_mean = 30.0", "jumps"),
    ("merton_call.cfg", "intensity_per_year = 0.5",
     "intensity_per_year = 1e308", "jumps"),
    ("merton_call.cfg", "jump_std = 0.2", "jump_std = 1e-200",
     "jumps.jump_std"),
    ("merton_call.cfg", MERTON_JUMPS,
     TAIL_JUMPS.replace("alpha = 0.5", "alpha = -1e300"), "jumps"),
    ("merton_call.cfg", "volatility = 0.2", "volatility = 1e300",
     "market.volatility"),
    # |r| T past ln(float max): report_price's discount e^(-r T) used to
    # raise an OverflowError after the whole solve, and a maturity of 1e300
    # a ValueError from the time mesh's arange
    ("merton_call.cfg", "rate_per_year = 0.05", "rate_per_year = -710",
     "market"),
    ("merton_call.cfg", "maturity_years = 1.0", "maturity_years = 1e300",
     "market"),
    # e^(m + s^2/2) overflows: the Merton series oracle used to raise an
    # OverflowError after the whole solve
    ("merton_call.cfg", "jump_std = 0.2", "jump_std = 1e150", "jumps"),
    # the cell width 2 * half_width / n_core underflows to 0: the solve used
    # to end in a ZeroDivisionError
    ("kou_put.cfg", "half_width = 6.0", "half_width = 5e-324",
     "grid.half_width"),
    # NaN passes a `<=` check, so each jump number is tested with `not >`
    ("kou_put.cfg", "intensity_per_year = 0.4", "intensity_per_year = nan",
     "jumps.intensity_per_year"),
    ("kou_put.cfg", "p_up = 0.6", "p_up = nan", "jumps.p_up"),
    ("kou_put.cfg", "eta_up = 8.0", "eta_up = nan", "jumps.eta_up"),
    ("kou_put.cfg", "eta_down = 4.0", "eta_down = nan", "jumps.eta_down"),
    ("kou_put.cfg", "eta_down = 4.0", "eta_down = inf", "jumps.eta_down"),
    ("merton_call.cfg", "intensity_per_year = 0.5", "intensity_per_year = nan",
     "jumps.intensity_per_year"),
    ("merton_call.cfg", "jump_mean = -0.1", "jump_mean = nan",
     "jumps.jump_mean"),
    ("merton_call.cfg", "jump_std = 0.2", "jump_std = nan", "jumps.jump_std"),
    ("merton_call.cfg", MERTON_JUMPS, TAIL_JUMPS.replace("c0 = 1.0", "c0 = nan"),
     "jumps.c0"),
    ("merton_call.cfg", MERTON_JUMPS,
     TAIL_JUMPS.replace("alpha = 0.5", "alpha = nan"), "jumps.alpha"),
    ("merton_call.cfg", MERTON_JUMPS,
     TAIL_JUMPS.replace("decay = 3.0", "decay = nan"), "jumps.decay"),
    ("impact_call.cfg", "rho = 0.05", "rho = nan", "shift.rho"),
    ("impact_call.cfg", "rho = 0.05", "rho = inf", "shift.rho"),
]


@pytest.mark.parametrize("demo,old,new,key", NON_FINITE,
                         ids=[f"{d}-{o}-{n}" for d, o, n, _ in NON_FINITE])
def test_non_finite_numbers_exit_2_before_any_solve(tmp_path, capsys, solves,
                                                    demo, old, new, key):
    text = (ROOT / "demos" / "configs" / demo).read_text()
    assert old in text
    path = _write(tmp_path, text.replace(old, new).replace(
        "n_core = 1024", "n_core = 128"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == key
    assert main(["--config", path, "--out", str(tmp_path / "out"),
                 "price"]) == 2
    stderr = capsys.readouterr().err
    assert "config error" in stderr and f"[{key}]" in stderr
    assert solves == []
    assert not (tmp_path / "out" / "price.csv").exists()


def test_a_step_giving_too_many_time_levels_exits_2_before_the_plan(
        tmp_path, capsys, monkeypatch):
    # dt = 1e-13 used to end in a 29.1 TiB allocation in build_time_mesh
    plans = []
    real = solver.build_plan
    monkeypatch.setattr(solver, "build_plan",
                        lambda *a: plans.append(a) or real(*a))
    text = (ROOT / "demos" / "configs" / "merton_call.cfg").read_text()
    path = _write(tmp_path, text.replace("dt = 0.02", "dt = 1e-13").replace(
        "n_core = 1024", "n_core = 64"))
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "price"]) == 2
    err = capsys.readouterr().err
    assert "ParameterDomainError: dt 1e-13 gives about" in err
    assert "more than 2**24" in err
    assert plans == []
    assert not (out / "price.csv").exists()


def test_a_pad_too_long_for_an_array_index_exits_2_before_any_solve(
        tmp_path, capsys, solves):
    # half_width = 1e-300 loads, but the pad for the Merton reach would need
    # about 1e301 cells; make_grid used to end in an OverflowError (exit 1).
    # At 1e-6 it would be 157,286,400 points, which used to be built.
    text = (ROOT / "demos" / "configs" / "merton_call.cfg").read_text()
    for half_width in ("1e-300", "1e-6"):
        path = _write(tmp_path, text.replace(
            "half_width = 6.0", f"half_width = {half_width}").replace(
            "n_core = 1024", "n_core = 64"))
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out), "price"]) == 2
        err = capsys.readouterr().err
        assert "ParameterDomainError" in err
        assert "more than 2**24 grid points" in err
        assert f"half_width {float(half_width):.6g}" in err
    assert solves == []
    assert not (out / "price.csv").exists()


# (label, demo, edits to it, the numeric keys the demo then reads): together
# every numeric key of each section, family and strategy
NUMERIC_KEYS = [
    ("merton", "merton_call.cfg", {},
     ("market.spot", "market.strike", "market.maturity_years",
      "market.rate_per_year", "market.volatility", "jumps.intensity_per_year",
      "jumps.jump_mean", "jumps.jump_std", "grid.half_width", "grid.n_core",
      "scheme.dt", "assertions.oracle_rel_tol")),
    ("kou", "kou_put.cfg", {},
     ("jumps.intensity_per_year", "jumps.p_up", "jumps.eta_up",
      "jumps.eta_down", "scheme.cross_check_tol")),
    ("tail", "merton_call.cfg", {MERTON_JUMPS: TAIL_JUMPS},
     ("jumps.c0", "jumps.alpha", "jumps.decay")),
    ("tanh_ramp", "impact_call.cfg", {},
     ("shift.rho", "shift.amplitude", "shift.center", "shift.width")),
    ("sin", "impact_call.cfg", {"tanh_ramp": "sin"},
     ("shift.amplitude", "shift.frequency")),
    ("linear", "impact_call.cfg", {"tanh_ramp": "linear"},
     ("shift.amplitude",)),
]


def _set_key(text, path, value):
    """The config text with the dotted key set to value, added to its
    section (or a new one) when the text leaves it out."""
    section, key = path.split(".")
    line = re.compile(rf"^{key} = .*$", re.M)
    if line.search(text):
        return line.sub(f"{key} = {value}", text)
    if f"[{section}]" in text:
        return text.replace(f"[{section}]", f"[{section}]\n{key} = {value}")
    return f"{text}\n[{section}]\n{key} = {value}\n"


@pytest.mark.parametrize("demo,edits,path,value", [
    pytest.param(demo, edits, path, value, id=f"{label}-{path}={value}")
    for label, demo, edits, paths in NUMERIC_KEYS for path in paths
    for value in ("nan", "-inf", "fast")])
def test_every_numeric_key_names_itself_when_bad(tmp_path, capsys, solves,
                                                 demo, edits, path, value):
    text = (ROOT / "demos" / "configs" / demo).read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path_cfg = _write(tmp_path, _set_key(text, path, value))
    with pytest.raises(ConfigError) as err:
        load_config(path_cfg)
    assert err.value.key == path
    out = tmp_path / "out"
    assert main(["--config", path_cfg, "--out", str(out), "price"]) == 2
    assert f"[{path}]" in capsys.readouterr().err
    assert solves == []
    assert not (out / "price.csv").exists()


@pytest.mark.parametrize("value,key,command", [
    # each of these used to march every level and then report a failed
    # numeric check (exit 1) for what is a configuration error
    ("oracle_rel_tol = nan", "assertions.oracle_rel_tol", ["price"]),
    ("oracle_rel_tol = -1", "assertions.oracle_rel_tol", ["price"]),
])
def test_assertions_that_cannot_be_met_exit_2_before_any_solve(
        tmp_path, capsys, solves, value, key, command):
    text = (ROOT / "demos" / "configs" / "merton_call.cfg").read_text()
    path = _write(tmp_path, f"{text}\n[assertions]\n{value}\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == key
    assert main(["--config", path, "--out", str(tmp_path / "out"),
                 *command]) == 2
    assert key in capsys.readouterr().err
    assert solves == []


def test_odd_n_core_is_a_named_config_error(tmp_path):
    path = _write(tmp_path, MERTON_CFG.replace("n_core = 512", "n_core = 513"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "grid.n_core"


def test_docstring_key_list_is_the_key_table():
    block = config.__doc__.split("Sections and keys:")[1].split("\n\n")[1]
    listed = {}
    for section, keys in re.findall(r"\[(\w+)\]([^\[]*)", block):
        listed[section] = tuple(k.strip() for k in keys.split(","))
    assert listed == config.KEYS


def test_demo_and_benchmark_configs_load(tmp_path, monkeypatch):
    assert len(DEMO_CONFIGS) == 3
    for path in DEMO_CONFIGS:
        load_config(str(path))
    # the jump family and the strategy no demo config names
    tail = load_config(_write(tmp_path, MERTON_CFG.replace(
        "family = merton\nintensity_per_year = 0.5\njump_mean = -0.1\n"
        "jump_std = 0.2", "family = exponential_tail\nc0 = 1.0\nalpha = 0.5\n"
        "decay = 3.0")))
    assert tail.jump_family == "exponential_tail"
    assert tail.measure.shape == ShapeParams(1.0, 0.5, 3.0, 0.0)
    zero = load_config(_write(tmp_path, SHIFT_CFG.replace(
        "strategy = tanh_ramp", "strategy = zero")))
    assert zero.shift.rho == 0.05
    assert not np.any(zero.shift.strategy.psi(0.0, np.linspace(-2.0, 2.0, 9)))
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    refs = workloads.load_references()
    for kind in ("bs", "merton", "kou", *workloads.STRATEGY):
        params = refs[workloads.table_of(kind)]["rows"][0]["params"]
        for size in ("full", "tiny"):
            load_config(_write(tmp_path, workloads.config_text(kind, params,
                                                               size)))


@pytest.mark.parametrize("name", ["merton_call.cfg", "kou_put.cfg"])
def test_price_searches_the_tail_radius_once(tmp_path, monkeypatch, name):
    # the reach estimate, the plan and the Kou cross-check solve all read the
    # configured measure's cached jump_radius
    calls = []
    real = ShapeParams.tail_radius

    def counting(self, dim, rel_tol=1e-10):
        calls.append(rel_tol)
        return real(self, dim, rel_tol)

    monkeypatch.setattr(ShapeParams, "tail_radius", counting)
    cfg = str(ROOT / "demos" / "configs" / name)
    assert main(["--config", cfg, "--out", str(tmp_path), "price"]) == 0
    assert calls == [1e-10]
    # the manifest records the gap of the cross-check that ran
    stats = json.loads((tmp_path / "manifest.json").read_text())["stats"]
    if name == "kou_put.cfg":
        assert 0.0 <= stats["cross_check_gap"] <= 1e-3
    else:
        assert stats["cross_check_gap"] is None


def test_digest_tracks_config_bytes(tmp_path):
    a = load_config(_write(tmp_path, MERTON_CFG, "a.cfg"))
    b = load_config(_write(tmp_path, MERTON_CFG, "b.cfg"))
    c = load_config(_write(tmp_path, MERTON_CFG.replace("0.04", "0.02"),
                           "c.cfg"))
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert len(a.digest) == 64 and all(ch in "0123456789abcdef"
                                       for ch in a.digest)


def test_price_command_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, MERTON_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "price"]) == 0
    comment, header, rows = _read_rows(out / "price.csv")
    assert comment.startswith("# schema=levypide-csv-1 config_digest=")
    assert header == ["S0", "K", "T", "price_pide", "price_oracle", "rel_err"]
    assert len(rows) == 1
    assert float(rows[0][5]) < 1e-3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["assertions_passed"] is True
    assert manifest["config_digest"] == load_config(cfg).digest
    assert "numpy" in manifest["versions"]
    assert manifest["outputs"] == [str(out / "price.csv")]
    assert manifest["stats"]["source_propagated"] > 0
    assert manifest["stats"]["source_switch_gap"] <= 1e-10
    assert manifest["stats"]["operator"] == "fft"
    assert manifest["stats"]["operator_build_s"] == 0.0
    assert 0.0 < manifest["stats"]["source_analytic_s"] \
        < manifest["wall_clock_s"]
    assert manifest["stats"]["shift_resolve_s"] == 0.0
    assert manifest["stats"]["shift_fallback_points"] == 0
    assert manifest["stats"]["shift_fp_iterations"] == 0
    assert manifest["stats"]["explicit_evaluations"] > 0
    # the Merton source is the closed form, checked against the node sum
    # at the horizon; it evaluates no (node, point) pair
    assert manifest["stats"]["source_form"] == "closed"
    assert manifest["stats"]["source_node_gap"] <= solver.SOURCE_NODE_TOL
    assert manifest["stats"]["source_pairs"] == 0
    assert manifest["scheme"] == {"scheme": "imex_bdf2", "dt": 0.04}
    assert "threads" not in manifest


def test_price_without_jumps_checks_against_black_scholes(tmp_path):
    # family = none has the Black-Scholes closed form as its oracle
    cfg = _write(tmp_path, MERTON_CFG.replace(
        "family = merton\nintensity_per_year = 0.5\njump_mean = -0.1\n"
        "jump_std = 0.2", "family = none"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "price"]) == 0
    _, _, rows = _read_rows(out / "price.csv")
    assert float(rows[0][4]) == bs_closed_form(load_config(cfg).market)
    assert float(rows[0][5]) < 1e-6
    assert json.loads((out / "manifest.json").read_text())["stats"][
        "operator"] is None


def test_manifest_records_the_grid_and_source_window_that_ran(tmp_path,
                                                             untagged):
    cfg = _write(tmp_path, MERTON_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "price"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the solve sized the reach itself
    reach = estimate_reach(load_config(cfg).measure, None, 6.0)
    grid = make_grid(6.0, 512, reach=reach)
    assert manifest["grid"] == {"half_width": 6.0, "n_core": 512,
                                "reach": reach, "pad": grid.pad,
                                "n_total": grid.n_total}
    stats = manifest["stats"]
    assert stats["source_form"] == "nodes"
    assert stats["source_window_gap"] <= 1e-12
    assert 0.0 < stats["source_pair_fraction"] < 0.25
    assert 0.0 < stats["stability_margin"] < 1.0


def test_price_runs_are_byte_deterministic(tmp_path, no_rng):
    cfg = _write(tmp_path, MERTON_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", cfg, "--out", str(out1), "price"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "price"]) == 0
    assert (out1 / "price.csv").read_bytes() == (out2 / "price.csv").read_bytes()


def test_price_with_shift_runs(tmp_path):
    cfg = _write(tmp_path, SHIFT_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "price"]) == 0
    _, _, rows = _read_rows(out / "price.csv")
    # no oracle for the impacted model: the oracle and gap columns are nan
    assert rows[0][4] == "nan" and rows[0][5] == "nan"
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert stats["operator"] == "band"
    assert stats["operator_build_s"] > 0.0
    assert 0.0 < stats["shift_resolve_s"] <= stats["operator_build_s"]
    assert stats["shift_fp_iterations"] > 0
    # at dt 0.04 the interpolant's nodes would outnumber the levels it saves
    assert stats["source_interpolated"] == 0
    assert stats["source_interp_nodes"] is None
    assert stats["source_interp_gap"] is None


def test_impact_call_manifest_records_the_interpolated_source(tmp_path):
    cfg = str(ROOT / "demos" / "configs" / "impact_call.cfg")
    assert main(["--config", cfg, "--out", str(tmp_path), "price"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    stats = manifest["stats"]
    assert stats["source_interp_nodes"] > 0
    assert stats["source_interp_gap"] <= 1e-10
    assert stats["source_interpolated"] > 0
    assert stats["source_propagated"] == 0
    # the interpolant's first node, where its reader starts
    assert 0.0 < stats["source_switch_tau"] < 1.0
    assert 0.0 < stats["plan_build_s"] < manifest["wall_clock_s"]


# The prices `levypide price` writes for the demo configs, as float.hex.
DEMO_PRICES = {"merton_call": "0x1.853fd4d3c2f7dp+3",
               "kou_put": "0x1.389e0cb062ae5p+2",
               "impact_call": "0x1.86dfef6ec1ffep+3"}


@pytest.fixture
def fft_calls(monkeypatch):
    """The number of np.fft.rfft and irfft calls made so far; Transforms
    looks both up on each call."""
    calls = [0]

    def counted(real):
        def call(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)
        return call

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    return calls


@pytest.mark.parametrize("name,limit,pairs", [
    ("merton_call", 90, 0), ("kou_put", 170, 0),
    ("jump_free", 70, 0), ("impact_call", 208, 1_500_000)],
    ids=["merton_call", "kou_put", "jump_free", "impact_call"])
def test_demo_prices_and_their_transform_counts(tmp_path, fft_calls, name,
                                                limit, pairs):
    # the march keeps its state and the explicit terms on the spectrum, so
    # an FFT-path price costs about one inverse transform per time level
    # (kou_put's cross-check marches twice), and the band path its one
    # inverse, gradient and forward transform per level plus one forward
    # transform per analytic source level; the gamma = 0 checkpoint norms
    # take none.  The Merton and Kou sources are closed forms, which sum
    # over no (node, point) pair; the impacted source evaluates the pairs
    # of its node blocks' column windows
    demo = "merton_call" if name == "jump_free" else name
    text = (ROOT / "demos" / "configs" / f"{demo}.cfg").read_text()
    if name == "jump_free":
        text = text.replace("family = merton\nintensity_per_year = 0.5\n"
                            "jump_mean = -0.1\njump_std = 0.2",
                            "family = none")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "price"]) == 0
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    _, _, rows = _read_rows(out / "price.csv")
    if name in DEMO_PRICES:
        pinned = float.fromhex(DEMO_PRICES[name])
        assert abs(float(rows[0][3]) / pinned - 1.0) <= 1e-12
    if name == "impact_call":
        limit += stats["source_analytic"]
    assert fft_calls[0] <= limit
    if pairs is not None:
        assert stats["source_pairs"] <= pairs
    # the record counts the solve's own transforms: all but the lattice
    # symbol's one and those of the cross-check's solve
    if name == "kou_put":
        assert 0 < stats["fft_transforms"] < fft_calls[0]
    else:
        assert stats["fft_transforms"] \
            == fft_calls[0] - (stats["operator"] == "fft")


def test_price_counts_shift_fallback_points(tmp_path):
    # a steep strategy stalls the shift fixed point for the larger negative
    # jumps; the manifest counts the points the bracketed solve took over
    steep = SHIFT_CFG.replace("strategy = tanh_ramp\namplitude = 0.3\nwidth = 1.0",
                              "strategy = sin\namplitude = 0.05\nfrequency = 10.0")
    cfg = _write(tmp_path, steep.replace("rho = 0.05", "rho = 1.0"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "price"]) == 0
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert stats["shift_fallback_points"] > 0


def test_diagnose_bessel(tmp_path, no_rng):
    cfg = _write(tmp_path, MERTON_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "diagnose",
                 "bessel"]) == 0
    _, header, rows = _read_rows(out / "bessel.csv")
    checks = {r[0] for r in rows}
    assert {"mass", "closed_form_order2", "closed_form_order1",
            "modulus_spread"} <= checks
    assert all(r[-1] == "true" for r in rows)
    # the log-radius rule leaves at most 1.5e-13 of each kernel's unit mass
    assert all(abs(float(r[3]) - 1.0) < 1e-12 for r in rows if r[0] == "mass")


def test_diagnose_operator(tmp_path, no_rng):
    cfg = _write(tmp_path, MERTON_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "diagnose",
                 "operator"]) == 0
    _, _, rows = _read_rows(out / "operator.csv")
    sym_rows = [r for r in rows if r[0] == "symbol"]
    assert [float(r[1]) for r in sym_rows] == [1.0, 2.0, 4.0]
    assert all(float(r[6]) < 1e-6 for r in sym_rows)
    assert any(r[0] == "annihilation" for r in rows)
    # the manifest records the diagnostic's own grid, and no march ran
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"]["n_core"] == 2048
    assert manifest["grid"]["half_width"] == 4.0 * np.pi
    assert manifest["scheme"] is None and manifest["stats"] is None


@pytest.mark.parametrize("name", ["merton_call", "kou_put",
                                  "exponential_tail"])
def test_diagnose_operator_checks_the_applied_symbol(tmp_path, name):
    # an identity plan applies its symbol_conv, not the node symbol: the
    # lattice symbol, or the stencil symbol for the singular tail (alpha =
    # 0.5); the apply rows read it off cos(kx) on a box of whole periods
    # (n_total a multiple of 512).  Measured gaps: 1.3e-12 (Merton), 1.9e-7
    # (Kou), 8.2e-9, 3.7e-8 and 2.0e-7 (tail, k = 1, 2, 4).  The tail's
    # annihilation row is taken pointwise against K e^(x + r tau).
    out = tmp_path / "out"
    cfg = str(ROOT / "demos" / "configs" / f"{name}.cfg")
    if name == "exponential_tail":
        text = (ROOT / "demos" / "configs" / "merton_call.cfg").read_text()
        assert MERTON_JUMPS in text
        cfg = _write(tmp_path, text.replace(MERTON_JUMPS, TAIL_JUMPS))
    assert main(["--config", cfg, "--out", str(out), "diagnose",
                 "operator"]) == 0
    _, _, rows = _read_rows(out / "operator.csv")
    apply_rows = [r for r in rows if r[0] == "apply"]
    assert [float(r[1]) for r in apply_rows] == [1.0, 2.0, 4.0]
    assert all(float(r[6]) < 1e-6 and r[-1] == "true" for r in apply_rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"]["n_total"] % 512 == 0


def test_diagnose_decay(tmp_path, no_rng):
    cfg = _write(tmp_path, MERTON_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "diagnose", "decay"]) == 0
    _, header, rows = _read_rows(out / "decay.csv")
    assert header == ["gamma", "slope", "bound", "passed"]
    assert [float(r[0]) for r in rows] == [0.5, 0.75]
    for r in rows:
        assert float(r[1]) >= float(r[2])


def test_convergence_study(tmp_path, no_rng):
    cfg = _write(tmp_path, MERTON_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "convergence-study",
                 "--halvings", "2"]) == 0
    _, header, rows = _read_rows(out / "convergence.csv")
    assert header == ["level", "n_core", "dt", "h", "rel_err",
                      "observed_order"]
    assert len(rows) == 2
    order = float(rows[1][5])
    assert 1.5 <= order <= 2.8
    manifest = json.loads((out / "manifest.json").read_text())
    assert [g["n_core"] for g in manifest["grid"]] == [512, 1024]
    assert manifest["scheme"] == {"scheme": "imex_bdf2", "dt": 0.04}


def test_convergence_study_without_oracle_needs_three_levels(tmp_path, capsys):
    # with no oracle the finest level is the reference, so two levels give
    # no observed order: the run is refused before any solve
    cfg = str(ROOT / "demos" / "configs" / "kou_put.cfg")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "convergence-study",
                 "--halvings", "2"]) == 2
    assert "--halvings" in capsys.readouterr().err
    assert not (out / "convergence.csv").exists()
    assert main(["--config", cfg, "--out", str(out), "convergence-study",
                 "--halvings", "3"]) == 0
    _, _, rows = _read_rows(out / "convergence.csv")
    assert np.isfinite(float(rows[1][5]))


def test_convergence_study_refuses_a_too_fine_ladder_before_any_solve(
        tmp_path, capsys, solves):
    # level 14 of merton_call.cfg pads past the 2**24-point cap; the levels
    # below it (13 alone is 11.9M points at dt 2.4e-6) are never solved
    cfg = str(ROOT / "demos" / "configs" / "merton_call.cfg")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["--config", cfg, "--out", str(out), "convergence-study",
                 "--halvings", "15"]) == 2
    assert time.perf_counter() - t0 < 10.0
    assert "ParameterDomainError" in capsys.readouterr().err
    assert solves == []
    assert not (out / "convergence.csv").exists()


def test_xi_probe(tmp_path, no_rng):
    cfg = _write(tmp_path, SHIFT_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "xi-probe"]) == 0
    _, _, rows = _read_rows(out / "xi_probe.csv")
    probes = {r[0] for r in rows}
    assert {"growth_spread", "first_order_gap_ratio",
            "multi_root_cells"} <= probes
    ratio = next(float(r[2]) for r in rows
                 if r[0] == "first_order_gap_ratio")
    assert 3.0 <= ratio <= 5.0
    # the probe needs an active shift to make sense
    assert main(["--config", _write(tmp_path, MERTON_CFG, "plain.cfg"),
                 "--out", str(tmp_path / "none"), "xi-probe"]) == 2


def test_missing_config_is_a_clean_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "--out",
                 str(tmp_path / "out"), "price"]) == 2


def test_the_removed_run_settings_exit_2(tmp_path, capsys):
    # --seedless is gone (no subcommand draws random numbers; see no_rng),
    # and so are the [assertions] order band keys
    cfg = _write(tmp_path, MERTON_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "--out", str(tmp_path / "out"), "--seedless",
              "price"])
    assert exc.value.code == 2
    assert "--seedless" in capsys.readouterr().err
    for key in ("order_lo", "order_hi"):
        path = _write(tmp_path, f"{MERTON_CFG}\n[assertions]\n{key} = 2.0\n")
        assert main(["--config", path, "--out", str(tmp_path / "out"),
                     "convergence-study"]) == 2
        assert f"assertions.{key}" in capsys.readouterr().err
