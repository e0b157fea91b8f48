import csv
import json

import numpy as np
import pytest

from levypide.cli import _seedless_guard, main
from levypide.config import load_config
from levypide.errors import ConfigError, LevyPideError

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
    assert manifest["stats"]["shift_fallback_points"] == 0
    assert "threads" not in manifest


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
