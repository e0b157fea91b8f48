import csv
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from levypide import config
from levypide.cli import _seedless_guard, main
from levypide.config import load_config
from levypide.errors import ConfigError, LevyPideError
from levypide.grids import make_grid
from levypide.measures import ShapeParams
from levypide.pricing import estimate_reach

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
    # bad values the loader must not drop: a negative or NaN reach, and a
    # strategy name that rho = 0 would otherwise never look at
    ("n_core = 512", "n_core = 512\nreach = -3.0", "grid.reach"),
    ("n_core = 512", "n_core = 512\nreach = nan", "grid.reach"),
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


def test_spot_outside_the_core_window_exits_2(tmp_path, capsys):
    # ln(100 / 0.1) = 6.91 lies past half_width = 6, where the price would
    # be read from the padding
    path = _write(tmp_path, MERTON_CFG.replace("strike = 100.0",
                                               "strike = 0.1"))
    assert main(["--config", path, "--out", str(tmp_path / "out"),
                 "price"]) == 2
    err = capsys.readouterr().err
    assert "OutOfDomainError" in err and "ln(S0/K) = 6.90776" in err


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
    assert manifest["stats"]["shift_resolve_s"] == 0.0
    assert manifest["stats"]["shift_fallback_points"] == 0
    assert manifest["stats"]["shift_fp_iterations"] == 0
    assert manifest["stats"]["explicit_evaluations"] > 0
    assert manifest["stats"]["source_pairs"] > 0
    assert manifest["scheme"] == {"scheme": "imex_bdf2", "dt": 0.04}
    assert "threads" not in manifest


def test_manifest_records_the_grid_and_source_window_that_ran(tmp_path):
    cfg = _write(tmp_path, MERTON_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "price"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the config leaves the reach out, so the solve sized it itself
    loaded = load_config(cfg)
    assert loaded.reach is None
    reach = estimate_reach(loaded.measure, None, 6.0)
    grid = make_grid(6.0, 512, reach=reach)
    assert manifest["grid"] == {"half_width": 6.0, "n_core": 512,
                                "reach": reach, "pad": grid.pad,
                                "n_total": grid.n_total}
    stats = manifest["stats"]
    assert stats["source_window_gap"] <= 1e-12
    assert 0.0 < stats["source_pair_fraction"] < 0.25
    assert 0.0 < stats["stability_margin"] < 1.0


def test_price_runs_are_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, MERTON_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", cfg, "--out", str(out1), "--seedless",
                 "price"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--seedless",
                 "price"]) == 0
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


def test_diagnose_bessel(tmp_path):
    cfg = _write(tmp_path, MERTON_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "diagnose",
                 "bessel"]) == 0
    _, header, rows = _read_rows(out / "bessel.csv")
    checks = {r[0] for r in rows}
    assert {"mass", "closed_form_order2", "closed_form_order1",
            "modulus_spread"} <= checks
    assert all(r[-1] == "true" for r in rows)


def test_diagnose_operator(tmp_path):
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


def test_diagnose_decay(tmp_path):
    cfg = _write(tmp_path, MERTON_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "diagnose", "decay"]) == 0
    _, header, rows = _read_rows(out / "decay.csv")
    assert header == ["gamma", "slope", "bound", "passed"]
    assert [float(r[0]) for r in rows] == [0.5, 0.75]
    for r in rows:
        assert float(r[1]) >= float(r[2])


def test_convergence_study(tmp_path):
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


def test_xi_probe(tmp_path):
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


def test_seedless_guard_trips_on_rng():
    with pytest.raises(LevyPideError):
        with _seedless_guard(True):
            np.random.rand(3)
    # and restores the originals afterwards
    assert np.random.rand(2).shape == (2,)
